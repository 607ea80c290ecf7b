(* Old-vs-new benchmark for the batch execution engine.

   For each join-heavy workload pattern, optimizes once (DPP over the
   database's histogram provider), then executes the SAME plan through
   the legacy list-based engine ([Executor.execute ~kernel:`Legacy]) and
   the columnar batch engine ([`Columnar]).

   The gate is fully deterministic: outputs must be identical, the
   engines' deterministic work counters must agree (same comparisons,
   same tuples, same stack traffic — skip-ahead accounting aside), a
   repeat run must reproduce the counters bit-for-bit, skip-ahead must
   actually fire somewhere, and the columnar engine must not allocate
   more than the legacy engine (with a >= 2x allocation win on at least
   one Mbench/DBLP pattern).  Wall-clock numbers are still measured and
   reported, but they are advisory — no gate reads them, so the bench
   passes or fails the same way on a loaded CI box and a quiet laptop.

   Appends a "perf" perf-history datapoint for `sjos perf-gate perf`.
   Scale defaults to 0.5, repetitions to 5.

   Run with: dune exec bench/main.exe perf *)

open Sjos_engine
open Sjos_core
open Sjos_exec
module Work = Sjos_obs.Work

let scale = Harness.scale ~default:0.5
let reps = Harness.reps ~default:5

(* The join-heavy subset of the workload: every pattern has >= 2
   structural joins, which is where the kernels live. *)
let bench_ids =
  [ "Q.Mbench.1.a"; "Q.Mbench.2.b"; "Q.DBLP.1.b"; "Q.DBLP.2.c"; "Q.Pers.3.d" ]

(* Engine-invariant work equality: items_skipped is the one counter the
   two engines legitimately disagree on (only the columnar kernels
   skip), so it is zeroed — everything else must match. *)
let work_equal_mod_skips (a : Work.t) (b : Work.t) =
  Work.equal { a with Work.items_skipped = 0 } { b with Work.items_skipped = 0 }

type row = {
  id : string;
  dataset : string;
  nodes : int;
  rows_out : int;
  legacy_seconds : float;
  columnar_seconds : float;
  legacy_bytes : float;
  columnar_bytes : float;
  legacy_work : Work.t;
  columnar_work : Work.t;
  skipped_items : int;
  identical : bool;
  work_identical : bool;
  repeat_deterministic : bool;
}

let speedup r = r.legacy_seconds /. r.columnar_seconds
let alloc_ratio r = r.legacy_bytes /. r.columnar_bytes

let bench_query (query : Workload.query) =
  let ds = query.Workload.dataset in
  let doc =
    Harness.doc ~size:(Harness.scaled scale (Workload.default_size ds)) ds
  in
  let db = Database.of_document doc in
  let index = Database.index db in
  let pattern = query.Workload.pattern in
  let provider = Database.provider db pattern in
  let _, plan = Dpp.run (Search.make_ctx ~provider pattern) in
  let run kernel = Executor.execute ~kernel index pattern plan in
  (* one accounted run per engine: the scoped accumulator captures
     exactly this execution's deterministic work *)
  let accounted kernel =
    let work, outcome = Work.scoped (fun () -> run kernel) in
    match outcome with Ok r -> (work, r) | Error e -> raise e
  in
  (* correctness first: engines must agree before we time anything *)
  let legacy_work, legacy_run = accounted `Legacy in
  let columnar_work, columnar_run = accounted `Columnar in
  let identical =
    Harness.tuples_equal legacy_run.Executor.tuples columnar_run.Executor.tuples
    && work_equal_mod_skips legacy_run.Executor.work columnar_run.Executor.work
  in
  let work_identical = work_equal_mod_skips legacy_work columnar_work in
  (* bit-determinism across repeat runs is the property the perf-history
     gate stands on — prove it on every pattern, both engines *)
  let repeat_deterministic =
    let legacy_work', _ = accounted `Legacy in
    let columnar_work', _ = accounted `Columnar in
    Work.equal legacy_work legacy_work'
    && Work.equal columnar_work columnar_work'
  in
  let allocated kernel =
    let before = Gc.allocated_bytes () in
    ignore (run kernel);
    Gc.allocated_bytes () -. before
  in
  let time_batch kernel iters =
    let t0 = Sjos_obs.Clock.now_ns () in
    for _ = 1 to iters do
      ignore (run kernel)
    done;
    Sjos_obs.Clock.elapsed_seconds ~since:t0 /. float_of_int iters
  in
  (* adaptive: microsecond-scale queries are timed in batches big enough
     (>= ~4ms) that clock granularity and scheduler jitter don't drown
     the signal *)
  let calibrate kernel =
    let iters = ref 1 in
    while
      !iters < 65536
      && time_batch kernel !iters *. float_of_int !iters < 0.004
    do
      iters := !iters * 4
    done;
    !iters
  in
  (* the engines are sampled interleaved, with the heap compacted before
     each sample, so a load spike or GC debt penalizes both equally
     instead of whichever happened to run during it *)
  let best_seconds () =
    let il = calibrate `Legacy and ic = calibrate `Columnar in
    let bl = ref infinity and bc = ref infinity in
    for _ = 1 to reps do
      Gc.compact ();
      let l = time_batch `Legacy il in
      Gc.compact ();
      let c = time_batch `Columnar ic in
      if l < !bl then bl := l;
      if c < !bc then bc := c
    done;
    (!bl, !bc)
  in
  let legacy_seconds, columnar_seconds = best_seconds () in
  {
    id = query.Workload.id;
    dataset = Workload.dataset_name query.Workload.dataset;
    nodes = Sjos_xml.Document.size doc;
    rows_out = Array.length columnar_run.Executor.tuples;
    legacy_seconds;
    columnar_seconds;
    legacy_bytes = allocated `Legacy;
    columnar_bytes = allocated `Columnar;
    legacy_work;
    columnar_work;
    skipped_items = columnar_run.Executor.work.Work.items_skipped;
    identical;
    work_identical;
    repeat_deterministic;
  }

let row_to_json r =
  Sjos_obs.Json.Obj
    [
      ("id", Sjos_obs.Json.Str r.id);
      ("dataset", Sjos_obs.Json.Str r.dataset);
      ("nodes", Sjos_obs.Json.Int r.nodes);
      ("output_tuples", Sjos_obs.Json.Int r.rows_out);
      ("legacy_seconds", Sjos_obs.Json.Float r.legacy_seconds);
      ("columnar_seconds", Sjos_obs.Json.Float r.columnar_seconds);
      ("speedup", Sjos_obs.Json.Float (speedup r));
      ("legacy_allocated_bytes", Sjos_obs.Json.Float r.legacy_bytes);
      ("columnar_allocated_bytes", Sjos_obs.Json.Float r.columnar_bytes);
      ("alloc_ratio", Sjos_obs.Json.Float (alloc_ratio r));
      ("legacy_work", Work.to_json r.legacy_work);
      ("columnar_work", Work.to_json r.columnar_work);
      ("skipped_items", Sjos_obs.Json.Int r.skipped_items);
      ("identical_output", Sjos_obs.Json.Bool r.identical);
      ("work_identical", Sjos_obs.Json.Bool r.work_identical);
      ("repeat_deterministic", Sjos_obs.Json.Bool r.repeat_deterministic);
    ]

(* The statistics catalog: on a fresh (warmed) database, the provider
   plus a full-mask estimate of the headline Mbench pattern builds each
   histogram once, straight from the candidate columns, so its
   allocation is a few histograms' worth, not a per-row cost; a repeat
   on the same database builds no entry.  Counts and bytes, never
   seconds.  The document is at least Mbench's default size: below it,
   the fixed cost (one grid per level slice) is a visible share of the
   per-row bound. *)
type catalog_probe = {
  candidate_rows : int;  (** summed candidate-set sizes of the pattern *)
  estimate_bytes : float;  (** allocated by provider + full-mask estimate *)
  first_builds : int;
  repeat_builds : int;  (** entry and slice builds on the repeat *)
}

let catalog_bytes_per_row = 4.0

let probe_catalog () =
  let doc =
    Harness.doc
      ~size:
        (Harness.scaled (Float.max 1.0 scale)
           (Workload.default_size Workload.Mbench))
      Workload.Mbench
  in
  let db = Database.of_document doc in
  Database.warm db;
  let pattern = Sjos_pattern.Parse.pattern "eNest(//eNest(/eOccasional))" in
  let full = (1 lsl Sjos_pattern.Pattern.node_count pattern) - 1 in
  let builds () =
    let s = Sjos_histogram.Catalog.stats (Database.catalog db) in
    s.Sjos_histogram.Catalog.builds + s.Sjos_histogram.Catalog.slice_builds
  in
  let estimate () =
    let p = Database.provider db pattern in
    ignore (p.Sjos_plan.Costing.cluster_card full);
    p
  in
  (* start from an empty minor heap: a minor collection inside the
     measured span can be booked as a whole heap's worth of allocation *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let p = estimate () in
  let estimate_bytes = Gc.allocated_bytes () -. before in
  let first_builds = builds () in
  ignore (estimate ());
  let candidate_rows =
    List.fold_left
      (fun acc i -> acc + int_of_float (p.Sjos_plan.Costing.node_card i))
      0
      (List.init (Sjos_pattern.Pattern.node_count pattern) Fun.id)
  in
  {
    candidate_rows;
    estimate_bytes;
    first_builds;
    repeat_builds = builds () - first_builds;
  }

let catalog_to_json c =
  Sjos_obs.Json.Obj
    [
      ("candidate_rows", Sjos_obs.Json.Int c.candidate_rows);
      ("estimate_allocated_bytes", Sjos_obs.Json.Float c.estimate_bytes);
      ( "bytes_per_row",
        Sjos_obs.Json.Float (c.estimate_bytes /. float_of_int c.candidate_rows)
      );
      ("first_builds", Sjos_obs.Json.Int c.first_builds);
      ("repeat_builds", Sjos_obs.Json.Int c.repeat_builds);
    ]

let run () =
  Printf.printf "batch execution engine: old vs new (scale %.2f, best of %d)\n"
    scale reps;
  Printf.printf "%-14s %-7s %8s %9s %11s %11s %8s %8s %10s\n" "query" "data"
    "nodes" "tuples" "legacy(s)" "columnar(s)" "speedup" "alloc x" "skipped";
  let rows = List.map (fun id -> bench_query (Workload.find id)) bench_ids in
  List.iter
    (fun r ->
      Printf.printf "%-14s %-7s %8d %9d %11.6f %11.6f %7.2fx %7.2fx %10d%s\n"
        r.id r.dataset r.nodes r.rows_out r.legacy_seconds r.columnar_seconds
        (speedup r) (alloc_ratio r) r.skipped_items
        (if r.identical then "" else "  !! OUTPUT MISMATCH"))
    rows;
  (* perf-history datapoint: one entry per (pattern, engine), scored by
     deterministic work units; wall-clock rides along as advisory *)
  let entries =
    List.concat_map
      (fun r ->
        [
          {
            Sjos_obs.Perf_history.entry_id = r.id ^ ":columnar";
            work = r.columnar_work;
            allocated_bytes = r.columnar_bytes;
            seconds = r.columnar_seconds;
          };
          {
            Sjos_obs.Perf_history.entry_id = r.id ^ ":legacy";
            work = r.legacy_work;
            allocated_bytes = r.legacy_bytes;
            seconds = r.legacy_seconds;
          };
        ])
      rows
  in
  let catalog = probe_catalog () in
  Printf.printf
    "statistics catalog: %d candidate rows, %.0f B allocated (%.2f B/row), \
     %d builds, %d on repeat\n"
    catalog.candidate_rows catalog.estimate_bytes
    (catalog.estimate_bytes /. float_of_int catalog.candidate_rows)
    catalog.first_builds catalog.repeat_builds;
  let meta =
    [ ("scale", Sjos_obs.Json.Float scale); ("reps", Sjos_obs.Json.Int reps) ]
  in
  Harness.report ~file:"BENCH_PERF.json"
    ~fields:
      (meta
      @ [
          ("patterns", Sjos_obs.Json.List (List.map row_to_json rows));
          ("catalog", catalog_to_json catalog);
        ])
    ~history:(meta, entries)
    [
      ("identical_outputs", List.for_all (fun r -> r.identical) rows);
      ("work_identical", List.for_all (fun r -> r.work_identical) rows);
      ( "repeat_deterministic",
        List.for_all (fun r -> r.repeat_deterministic) rows );
      ("skip_ahead_active", List.exists (fun r -> r.skipped_items > 0) rows);
      (* the deterministic replacements for the old wall-clock gates: the
         columnar engine must not allocate more than legacy anywhere, and
         must allocate at most half as much on some Mbench/DBLP pattern *)
      ( "no_alloc_regression",
        List.for_all (fun r -> r.columnar_bytes <= r.legacy_bytes) rows );
      ( "alloc_2x",
        List.exists
          (fun r ->
            (r.dataset = "Mbench" || r.dataset = "DBLP")
            && alloc_ratio r >= 2.0)
          rows );
      (* statistics are built once, from columns: allocation per
         candidate row stays under a small constant, a repeat builds
         nothing *)
      ( "catalog_alloc_per_row",
        catalog.candidate_rows > 0
        && catalog.estimate_bytes
           <= catalog_bytes_per_row *. float_of_int catalog.candidate_rows );
      ( "catalog_repeat_builds_nothing",
        catalog.first_builds > 0 && catalog.repeat_builds = 0 );
      ( "nonempty_work",
        rows <> []
        && List.for_all
             (fun r ->
               r.rows_out > 0 && Harness.work_ran r.legacy_work
               && Harness.work_ran r.columnar_work)
             rows );
    ]
