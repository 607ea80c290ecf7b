(* Deterministic work accounting.

   Each domain owns one plain-mutable-int accumulator (Domain.DLS), so
   the hot-path cost of charging work is a field write — no atomics, no
   locks, no branches on an enablement flag.  Determinism comes from
   what is counted, not from how it is stored: every counter is defined
   so that its total is invariant under any partitioning of the same
   logical work across domains (integer sums are order-independent, and
   the kernels charge partition-invariant quantities — see
   {!Stack_tree}'s drain accounting).  The domain pool merges each
   task's delta into the caller at its barrier ({!Sjos_par.Pool.run}),
   so a snapshot taken on the driving domain sees identical totals at
   any [SJOS_DOMAINS]. *)

type t = {
  mutable comparisons : int;
  mutable tuples_emitted : int;
  mutable items_skipped : int;
  mutable candidates_scanned : int;
  mutable stack_ops : int;
  mutable io_items : int;
  mutable sorted_items : int;
  mutable expansions : int;
  mutable plans_considered : int;
  mutable page_touches : int;
  mutable sort_cost : float;
}

let zero () =
  {
    comparisons = 0;
    tuples_emitted = 0;
    items_skipped = 0;
    candidates_scanned = 0;
    stack_ops = 0;
    io_items = 0;
    sorted_items = 0;
    expansions = 0;
    plans_considered = 0;
    page_touches = 0;
    sort_cost = 0.0;
  }

(* The calling domain's accumulator lives behind one extra indirection
   so [scoped] can swap a fresh record in and out without touching the
   DLS slot itself. *)
let slot_key = Domain.DLS.new_key (fun () -> ref (zero ()))
let current () = !(Domain.DLS.get slot_key)

let reset () =
  let w = current () in
  w.comparisons <- 0;
  w.tuples_emitted <- 0;
  w.items_skipped <- 0;
  w.candidates_scanned <- 0;
  w.stack_ops <- 0;
  w.sorted_items <- 0;
  w.io_items <- 0;
  w.expansions <- 0;
  w.plans_considered <- 0;
  w.page_touches <- 0;
  w.sort_cost <- 0.0

let copy w =
  {
    comparisons = w.comparisons;
    tuples_emitted = w.tuples_emitted;
    items_skipped = w.items_skipped;
    candidates_scanned = w.candidates_scanned;
    stack_ops = w.stack_ops;
    io_items = w.io_items;
    sorted_items = w.sorted_items;
    expansions = w.expansions;
    plans_considered = w.plans_considered;
    page_touches = w.page_touches;
    sort_cost = w.sort_cost;
  }

let snapshot () = copy (current ())

let merge_into dst src =
  dst.comparisons <- dst.comparisons + src.comparisons;
  dst.tuples_emitted <- dst.tuples_emitted + src.tuples_emitted;
  dst.items_skipped <- dst.items_skipped + src.items_skipped;
  dst.candidates_scanned <- dst.candidates_scanned + src.candidates_scanned;
  dst.stack_ops <- dst.stack_ops + src.stack_ops;
  dst.io_items <- dst.io_items + src.io_items;
  dst.sorted_items <- dst.sorted_items + src.sorted_items;
  dst.expansions <- dst.expansions + src.expansions;
  dst.plans_considered <- dst.plans_considered + src.plans_considered;
  dst.page_touches <- dst.page_touches + src.page_touches;
  dst.sort_cost <- dst.sort_cost +. src.sort_cost

let absorb src = merge_into (current ()) src

let diff ~after ~before =
  {
    comparisons = after.comparisons - before.comparisons;
    tuples_emitted = after.tuples_emitted - before.tuples_emitted;
    items_skipped = after.items_skipped - before.items_skipped;
    candidates_scanned = after.candidates_scanned - before.candidates_scanned;
    stack_ops = after.stack_ops - before.stack_ops;
    io_items = after.io_items - before.io_items;
    sorted_items = after.sorted_items - before.sorted_items;
    expansions = after.expansions - before.expansions;
    plans_considered = after.plans_considered - before.plans_considered;
    page_touches = after.page_touches - before.page_touches;
    sort_cost = after.sort_cost -. before.sort_cost;
  }

let scoped f =
  let slot = Domain.DLS.get slot_key in
  let outer = !slot in
  let fresh = zero () in
  slot := fresh;
  let result = match f () with v -> Ok v | exception e -> Error e in
  slot := outer;
  (fresh, result)

let measure f =
  let w, result = scoped f in
  absorb w;
  match result with Ok v -> (v, w) | Error e -> raise e

let fields w =
  [
    ("comparisons", w.comparisons);
    ("tuples_emitted", w.tuples_emitted);
    ("items_skipped", w.items_skipped);
    ("candidates_scanned", w.candidates_scanned);
    ("stack_ops", w.stack_ops);
    ("io_items", w.io_items);
    ("sorted_items", w.sorted_items);
    ("expansions", w.expansions);
    ("plans_considered", w.plans_considered);
    ("page_touches", w.page_touches);
  ]

(* [sort_cost] is left out: a float total depends on the order deltas
   were absorbed in (pool tasks, per-operator scopes), so it is exact
   per run but may differ in its last bits across domain counts. *)
let equal a b = fields a = fields b

let is_zero w =
  List.for_all (fun (_, v) -> v = 0) (fields w) && w.sort_cost = 0.0

(* items_skipped is excluded by design: skip-ahead is work {e avoided},
   and a kernel that skips more while producing the same result must
   never score worse. *)
let score w =
  w.comparisons + w.tuples_emitted + w.candidates_scanned + w.stack_ops
  + w.io_items + w.sorted_items + w.expansions + w.page_touches

(* The storage-independent slice of the score: everything except the IO
   counters ([io_items], [page_touches]), which legitimately differ
   between the Mem and Disk column-store backends (and between lazy and
   forced leaf scans).  The differential tests compare this. *)
let core_score w =
  w.comparisons + w.tuples_emitted + w.candidates_scanned + w.stack_ops
  + w.sorted_items + w.expansions

let equal_mod_io a b =
  let strip w = fields { w with io_items = 0; page_touches = 0 } in
  strip a = strip b

let to_json w =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (fields w)
    @ [ ("sort_cost", Json.Float w.sort_cost); ("score", Json.Int (score w)) ])

let of_json j =
  let field name =
    match Json.member name j with
    | Some (Json.Int v) -> Ok v
    | Some _ -> Error (Printf.sprintf "work field %S is not an integer" name)
    | None -> Error (Printf.sprintf "work field %S missing" name)
  in
  let ( let* ) = Result.bind in
  let* comparisons = field "comparisons" in
  let* tuples_emitted = field "tuples_emitted" in
  let* items_skipped = field "items_skipped" in
  let* candidates_scanned = field "candidates_scanned" in
  let* stack_ops = field "stack_ops" in
  let* io_items = field "io_items" in
  let* sorted_items = field "sorted_items" in
  let* expansions = field "expansions" in
  let* plans_considered = field "plans_considered" in
  let* page_touches = field "page_touches" in
  (* absent in datapoints written before the field existed *)
  let sort_cost =
    Option.value ~default:0.0
      (Option.bind (Json.member "sort_cost" j) Json.number)
  in
  Ok
    {
      comparisons;
      tuples_emitted;
      items_skipped;
      candidates_scanned;
      stack_ops;
      io_items;
      sorted_items;
      expansions;
      plans_considered;
      page_touches;
      sort_cost;
    }

let publish ?(prefix = "work") w =
  if Registry.enabled () then
    List.iter
      (fun (k, v) -> Registry.add (Registry.counter (prefix ^ "." ^ k)) v)
      (fields w)

let pp ppf w =
  List.iter (fun (k, v) -> Fmt.pf ppf "%s=%d " k v) (fields w);
  Fmt.pf ppf "sort_cost=%g score=%d" w.sort_cost (score w)

(* ---------- GC deltas (advisory; per-process, not per-domain) ---------- *)

type gc_snapshot = {
  allocated_bytes : float;
  minor_collections : int;
  major_collections : int;
}

let gc_snapshot () =
  let s = Gc.quick_stat () in
  {
    allocated_bytes = Gc.allocated_bytes ();
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff ~after ~before =
  {
    allocated_bytes = after.allocated_bytes -. before.allocated_bytes;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

let gc_to_json g =
  Json.Obj
    [
      ("allocated_bytes", Json.Float g.allocated_bytes);
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections);
    ]
