open Sjos_xml

type t = {
  doc : Document.t;
  by_tag : (string, Node.t array) Hashtbl.t;  (* immutable after [build] *)
  (* (tag, attr) -> value -> sorted nodes; built lazily *)
  by_attr : (string * string, (string, Node.t array) Hashtbl.t) Hashtbl.t;
  (* flat per-tag columns mirroring [by_tag]; built lazily *)
  cols_by_tag : (string, Cols.t) Hashtbl.t;
  (* guards the two lazily-filled tables above: a Hashtbl mutated while
     another domain probes it is a real race (resize moves buckets), so
     every access to them takes the lock.  [by_tag] needs none. *)
  lazy_m : Mutex.t;
}

(* Count-then-fill: one pass sizes each tag's array, a second fills it.
   Pre-order iteration already yields nodes sorted by start position. *)
type bucket = { mutable fill : int; mutable nodes : Node.t array }

let build doc =
  let all = Document.nodes doc in
  let buckets : (string, bucket) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      match Hashtbl.find buckets n.Node.tag with
      | b -> b.fill <- b.fill + 1
      | exception Not_found ->
          Hashtbl.add buckets n.Node.tag { fill = 1; nodes = [||] })
    all;
  let by_tag = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun tag b ->
      b.nodes <- Array.make b.fill all.(0);
      b.fill <- 0;
      Hashtbl.replace by_tag tag b.nodes)
    buckets;
  Array.iter
    (fun n ->
      let b = Hashtbl.find buckets n.Node.tag in
      b.nodes.(b.fill) <- n;
      b.fill <- b.fill + 1)
    all;
  {
    doc;
    by_tag;
    by_attr = Hashtbl.create 8;
    cols_by_tag = Hashtbl.create 16;
    lazy_m = Mutex.create ();
  }

let lookup t tag =
  match Hashtbl.find_opt t.by_tag tag with Some a -> a | None -> [||]

let cols t tag =
  Mutex.lock t.lazy_m;
  let c =
    match Hashtbl.find_opt t.cols_by_tag tag with
    | Some c -> c
    | None ->
        let c =
          match Hashtbl.find_opt t.by_tag tag with
          | None -> Cols.empty
          | Some nodes -> Cols.of_nodes nodes
        in
        Hashtbl.replace t.cols_by_tag tag c;
        c
  in
  Mutex.unlock t.lazy_m;
  c

(* The secondary index of one (tag, attr) pair, count-then-fill like
   [build]: the first pass hashes each node's value once, counting per
   value and noting the value's slot, the second fills exact-size arrays
   in document order.  Slots are noted in one byte per node, not an int:
   this side array is alive at a cold run's heap peak.  Only the first
   [coded] distinct values get a byte; a node with a later value is
   hashed again in the second pass. *)
type value_slot = { slot : int; mutable count : int; mutable out : Node.t array }

let coded = 254
let no_value = 255

let build_attr_table nodes attr =
  let slots : (string, value_slot) Hashtbl.t = Hashtbl.create 16 in
  let by_code = Array.make coded { slot = 0; count = 0; out = [||] } in
  let code = Bytes.make (Array.length nodes) (Char.chr no_value) in
  Array.iteri
    (fun i n ->
      match Node.attr n attr with
      | None -> ()
      | Some v ->
          let s =
            match Hashtbl.find slots v with
            | s -> s
            | exception Not_found ->
                let s = { slot = Hashtbl.length slots; count = 0; out = [||] } in
                Hashtbl.add slots v s;
                if s.slot < coded then by_code.(s.slot) <- s;
                s
          in
          s.count <- s.count + 1;
          Bytes.unsafe_set code i
            (Char.unsafe_chr (if s.slot < coded then s.slot else coded)))
    nodes;
  let table = Hashtbl.create (Hashtbl.length slots) in
  Hashtbl.iter
    (fun v s ->
      s.out <- Array.make s.count nodes.(0);
      s.count <- 0;
      Hashtbl.replace table v s.out)
    slots;
  Array.iteri
    (fun i n ->
      let c = Char.code (Bytes.unsafe_get code i) in
      if c <> no_value then begin
        let s =
          if c < coded then by_code.(c)
          else Hashtbl.find slots (Option.get (Node.attr n attr))
        in
        s.out.(s.count) <- n;
        s.count <- s.count + 1
      end)
    nodes;
  table

let lookup_attr t ~tag ~attr ~value =
  Mutex.lock t.lazy_m;
  let table =
    match Hashtbl.find_opt t.by_attr (tag, attr) with
    | Some table -> table
    | None ->
        let table = build_attr_table (lookup t tag) attr in
        Hashtbl.replace t.by_attr (tag, attr) table;
        table
  in
  let r =
    match Hashtbl.find_opt table value with Some a -> a | None -> [||]
  in
  Mutex.unlock t.lazy_m;
  r

let warm t =
  Hashtbl.iter (fun tag _ -> ignore (cols t tag)) t.by_tag

let cardinality t tag = Array.length (lookup t tag)

let tags t =
  Hashtbl.fold (fun tag _ acc -> tag :: acc) t.by_tag [] |> List.sort compare

let document t = t.doc
let total_nodes t = Document.size t.doc
