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

   Each run also appends a datapoint to the perf-history store
   (default directory: results/; override with SJOS_RESULTS_DIR) for
   `sjos perf-gate perf` to compare across runs.

   Environment knobs:
     SJOS_BENCH_SCALE   scale data set sizes (default 0.5; 1.0 = full)
     SJOS_BENCH_REPS    timed repetitions per engine (default 5)
     SJOS_RESULTS_DIR   perf-history directory (default results)
     SJOS_TRACE_OUT     also write a Chrome trace-event file of the
                        bench's spans to this path

   Run with: dune exec bench/bench_perf.exe *)

open Sjos_engine
open Sjos_core
open Sjos_exec
module Work = Sjos_obs.Work

let scale =
  match Sys.getenv_opt "SJOS_BENCH_SCALE" with
  | Some s -> (try float_of_string s with _ -> 0.5)
  | None -> 0.5

let reps =
  match Sys.getenv_opt "SJOS_BENCH_REPS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 5)
  | None -> 5

let results_dir =
  match Sys.getenv_opt "SJOS_RESULTS_DIR" with
  | Some d when d <> "" -> d
  | _ -> "results"

let scaled base = max 500 (int_of_float (float_of_int base *. scale))

(* The join-heavy subset of the workload: every pattern has >= 2
   structural joins, which is where the kernels live. *)
let bench_ids =
  [ "Q.Mbench.1.a"; "Q.Mbench.2.b"; "Q.DBLP.1.b"; "Q.DBLP.2.c"; "Q.Pers.3.d" ]

let doc_cache : (Workload.dataset, Sjos_xml.Document.t) Hashtbl.t =
  Hashtbl.create 4

let doc_for ds =
  match Hashtbl.find_opt doc_cache ds with
  | Some d -> d
  | None ->
      let d = Workload.generate ~size:(scaled (Workload.default_size ds)) ds in
      Hashtbl.add doc_cache ds d;
      d

let tuples_equal (a : Tuple.t array) (b : Tuple.t array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i t -> if not (Tuple.equal t b.(i)) then ok := false) a;
  !ok

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
  let doc = doc_for query.Workload.dataset in
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
    tuples_equal legacy_run.Executor.tuples columnar_run.Executor.tuples
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

let () =
  let trace_out = Sys.getenv_opt "SJOS_TRACE_OUT" in
  if trace_out <> None then Sjos_obs.Report.enable_all ();
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
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let work_identical = List.for_all (fun r -> r.work_identical) rows in
  let repeat_deterministic =
    List.for_all (fun r -> r.repeat_deterministic) rows
  in
  let skip_ahead_active = List.exists (fun r -> r.skipped_items > 0) rows in
  (* the deterministic replacements for the old wall-clock gates: the
     columnar engine must not allocate more than legacy anywhere, and
     must allocate at most half as much on some Mbench/DBLP pattern *)
  let no_alloc_regression =
    List.for_all (fun r -> r.columnar_bytes <= r.legacy_bytes) rows
  in
  let alloc_2x =
    List.exists
      (fun r ->
        (r.dataset = "Mbench" || r.dataset = "DBLP") && alloc_ratio r >= 2.0)
      rows
  in
  let pass =
    all_identical && work_identical && repeat_deterministic
    && skip_ahead_active && no_alloc_regression && alloc_2x
  in
  let json =
    Sjos_obs.Json.Obj
      [
        ("scale", Sjos_obs.Json.Float scale);
        ("reps", Sjos_obs.Json.Int reps);
        ("patterns", Sjos_obs.Json.List (List.map row_to_json rows));
        ( "shape",
          Sjos_obs.Json.Obj
            [
              ("identical_outputs", Sjos_obs.Json.Bool all_identical);
              ("work_identical", Sjos_obs.Json.Bool work_identical);
              ( "repeat_deterministic",
                Sjos_obs.Json.Bool repeat_deterministic );
              ("skip_ahead_active", Sjos_obs.Json.Bool skip_ahead_active);
              ("no_alloc_regression", Sjos_obs.Json.Bool no_alloc_regression);
              ("alloc_2x", Sjos_obs.Json.Bool alloc_2x);
              ("pass", Sjos_obs.Json.Bool pass);
            ] );
      ]
  in
  Sjos_obs.Report.write_file "BENCH_PERF.json" json;
  Printf.printf "wrote BENCH_PERF.json\n";
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
  let datapoint =
    {
      Sjos_obs.Perf_history.bench = "perf";
      timestamp = int_of_float (Unix.time ());
      meta =
        [
          ("scale", Sjos_obs.Json.Float scale);
          ("reps", Sjos_obs.Json.Int reps);
        ];
      entries;
    }
  in
  let path = Sjos_obs.Perf_history.append ~dir:results_dir datapoint in
  Printf.printf "appended perf-history datapoint %s\n" path;
  (match trace_out with
  | Some out ->
      Sjos_obs.Report.write_file out (Sjos_obs.Trace.to_chrome_json ());
      Sjos_obs.Report.disable_all ();
      Printf.printf "wrote Chrome trace to %s\n" out
  | None -> ());
  Printf.printf
    "shape check: identical outputs + work, repeat-deterministic, skip-ahead \
     active, no allocation regression, >=2x allocation win on Mbench/DBLP: \
     %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1
