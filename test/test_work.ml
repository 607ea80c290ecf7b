(* Deterministic work accounting, trace export and the perf-history gate.

   The load-bearing claims, each tested directly:

   - Work counters are partition-invariant: the same join charged
     through pools of 1, 2 and 4 domains (sharding forced with
     [par_min_rows:0]) produces bit-identical totals, and the columnar
     and legacy engines agree on every engine-invariant counter.
   - [Pool.run] absorbs each task's scoped delta at the barrier, so
     manual counter bumps from parallel tasks sum exactly.
   - The Chrome trace export round-trips through the project's own JSON
     parser and carries the span/track structure Perfetto needs.
   - The perf-history store appends, lists and reloads datapoints, and
     its gate passes on equal/improved runs, bootstraps on short
     history, and fails on work regressions, allocation regressions and
     disappearing entries. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_exec
module Pool = Sjos_par.Pool
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json
module Trace = Sjos_obs.Trace
module Perf_history = Sjos_obs.Perf_history

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let with_pool n f =
  let p = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ---------- accumulator mechanics ---------- *)

let test_scoped_isolation () =
  Work.reset ();
  let outer = Work.current () in
  outer.Work.comparisons <- 5;
  let inner, result =
    Work.scoped (fun () ->
        let w = Work.current () in
        w.Work.comparisons <- w.Work.comparisons + 3;
        w.Work.tuples_emitted <- 7;
        "done")
  in
  check cb "thunk ran" true (result = Ok "done");
  check ci "inner delta captured" 3 inner.Work.comparisons;
  check ci "inner tuples captured" 7 inner.Work.tuples_emitted;
  check ci "outer untouched by inner" 5 (Work.current ()).Work.comparisons;
  (* the delta lands only when explicitly absorbed *)
  Work.absorb inner;
  check ci "absorb adds" 8 (Work.current ()).Work.comparisons;
  (* exceptions still return the charged work *)
  let w, r =
    Work.scoped (fun () ->
        (Work.current ()).Work.expansions <- 11;
        failwith "boom")
  in
  check cb "exception reported" true (match r with Error _ -> true | _ -> false);
  check ci "work charged before raise survives" 11 w.Work.expansions;
  Work.reset ()

let test_pool_absorbs_task_work () =
  [ 1; 2; 4 ]
  |> List.iter @@ fun domains ->
     with_pool domains @@ fun pool ->
     Work.reset ();
     let results =
       Pool.run pool 32 (fun i ->
           let w = Work.current () in
           w.Work.comparisons <- w.Work.comparisons + i;
           w.Work.page_touches <- w.Work.page_touches + 1;
           i)
     in
     check ci "results intact" 32 (Array.length results);
     let total = Work.snapshot () in
     check ci
       (Printf.sprintf "comparisons sum @%d domains" domains)
       (31 * 32 / 2) total.Work.comparisons;
     check ci
       (Printf.sprintf "page_touches sum @%d domains" domains)
       32 total.Work.page_touches;
     Work.reset ()

let test_json_roundtrip () =
  let w = Work.zero () in
  w.Work.comparisons <- 17;
  w.Work.tuples_emitted <- 3;
  w.Work.items_skipped <- 99;
  w.Work.page_touches <- 2;
  w.Work.sort_cost <- 12.5;
  let json_str = Json.to_string (Work.to_json w) in
  match Result.bind (Json.of_string json_str) Work.of_json with
  | Error msg -> Alcotest.failf "work json roundtrip: %s" msg
  | Ok w' ->
      Helpers.check_work "roundtrip" w w';
      check ci "score excludes skips" (17 + 3 + 2) (Work.score w')

(* ---------- kernel invariance ---------- *)

let doc_and_index () =
  let doc = Sjos_datagen.Dblp.generate ~seed:42 ~target_nodes:900 () in
  (doc, Element_index.build doc)

let scans ~idx ~atag ~dtag =
  ( Operators.index_scan ~width:2 ~slot:0 (Element_index.lookup idx atag),
    Operators.index_scan ~width:2 ~slot:1 (Element_index.lookup idx dtag) )

let columnar_join ?pool ~doc ~idx ~atag ~dtag ~algo () =
  let anc, desc = scans ~idx ~atag ~dtag in
  Work.scoped (fun () ->
      Stack_tree.join ?pool ~par_min_rows:0 ~doc ~axis:Axes.Descendant ~algo
        ~anc:(anc, 0) ~desc:(desc, 1) ())

let legacy_join ~doc ~idx ~atag ~dtag ~algo () =
  let anc, desc = scans ~idx ~atag ~dtag in
  Work.scoped (fun () ->
      Stack_tree_legacy.join ~doc ~axis:Axes.Descendant ~algo ~anc:(anc, 0)
        ~desc:(desc, 1) ())

let algos = [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]

let test_work_identical_across_domains () =
  let doc, idx = doc_and_index () in
  List.iter
    (fun algo ->
      let serial_work, serial_r =
        columnar_join ~doc ~idx ~atag:"article" ~dtag:"author" ~algo ()
      in
      (match serial_r with Ok _ -> () | Error e -> raise e);
      check cb "serial charged comparisons" true
        (serial_work.Work.comparisons > 0);
      [ 1; 2; 4 ]
      |> List.iter (fun domains ->
             with_pool domains @@ fun pool ->
             let work, r =
               columnar_join ~pool ~doc ~idx ~atag:"article" ~dtag:"author"
                 ~algo ()
             in
             (match r with Ok _ -> () | Error e -> raise e);
             Helpers.check_work
               (Printf.sprintf "pool of %d vs serial" domains)
               serial_work work))
    algos

let test_work_identical_across_engines () =
  let doc, idx = doc_and_index () in
  List.iter
    (fun algo ->
      let col, cr =
        columnar_join ~doc ~idx ~atag:"article" ~dtag:"author" ~algo ()
      in
      let leg, lr = legacy_join ~doc ~idx ~atag:"article" ~dtag:"author" ~algo () in
      (match (cr, lr) with
      | Ok _, Ok _ -> ()
      | Error e, _ | _, Error e -> raise e);
      (* items_skipped is the one legitimate difference: only the
         columnar kernels skip *)
      check ci "comparisons engine-invariant" leg.Work.comparisons
        col.Work.comparisons;
      check ci "tuples engine-invariant" leg.Work.tuples_emitted
        col.Work.tuples_emitted;
      check ci "stack_ops engine-invariant" leg.Work.stack_ops
        col.Work.stack_ops;
      check ci "io engine-invariant" leg.Work.io_items col.Work.io_items;
      check ci "legacy never skips" 0 leg.Work.items_skipped)
    algos

let test_repeat_run_determinism () =
  let doc, idx = doc_and_index () in
  let run () =
    let w, r =
      columnar_join ~doc ~idx ~atag:"article" ~dtag:"title"
        ~algo:Plan.Stack_tree_desc ()
    in
    (match r with Ok _ -> () | Error e -> raise e);
    w
  in
  Helpers.check_work "two consecutive runs" (run ()) (run ())

(* A run that exhausts its budget still charges the work it did before
   the abort: the operators charge the domain's accumulator as they run,
   not in a copy made when the run returns. *)
let test_exhausted_run_keeps_partial_work () =
  let doc = Sjos_datagen.Pers.generate ~seed:1 ~target_nodes:5000 () in
  let db = Sjos_engine.Database.of_document doc in
  let opts = Sjos_engine.Query_opts.make ~max_tuples:2000 () in
  let pat = Sjos_pattern.Parse.pattern "manager(//employee(/name))" in
  let work, outcome =
    Work.scoped (fun () -> Sjos_engine.Database.run ~opts db pat)
  in
  let module Budget = Sjos_guard.Budget in
  (match outcome with
  | Error
      (Budget.Exhausted
        { resource = Budget.Tuples_materialized { limit; count }; _ }) ->
      check ci "limit" 2000 limit;
      check cb "count past the limit" true (count > limit)
  | Ok _ -> Alcotest.fail "expected the tuple ceiling to abort the run"
  | Error e -> raise e);
  check cb "comparisons charged" true (work.Work.comparisons > 0);
  check cb "candidates_scanned charged" true (work.Work.candidates_scanned > 0);
  check cb "tuples_emitted charged" true (work.Work.tuples_emitted > 0)

let test_pager_page_touches () =
  let before = (Work.snapshot ()).Work.page_touches in
  let p = Pager.create ~page_size:10 ~pool_pages:2 () in
  let seg = Pager.allocate p ~items:95 in
  Pager.scan p seg;
  let after = (Work.snapshot ()).Work.page_touches in
  check ci "one work unit per page access" 10 (after - before)

(* ---------- chrome trace export ---------- *)

let test_chrome_trace_roundtrip () =
  Trace.set_enabled true;
  Trace.reset ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span
        ~attrs:[ ("k", Json.Int 3) ]
        "inner"
        (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))));
  let chrome = Trace.to_chrome_json () in
  Trace.set_enabled false;
  Trace.reset ();
  (* must round-trip through our own parser *)
  let reparsed =
    match Json.of_string (Json.to_string chrome) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "chrome json does not reparse: %s" msg
  in
  let events =
    match Json.member "traceEvents" reparsed with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let has_phase ph name =
    List.exists
      (fun e ->
        Json.member "ph" e = Some (Json.Str ph)
        && Json.member "name" e = Some (Json.Str name))
      events
  in
  check cb "thread_name metadata present" true (has_phase "M" "thread_name");
  check cb "outer span exported" true (has_phase "X" "outer");
  check cb "inner span exported" true (has_phase "X" "inner");
  (* X events need ts/dur numbers and a tid *)
  List.iter
    (fun e ->
      if Json.member "ph" e = Some (Json.Str "X") then begin
        check cb "has ts" true (Option.is_some (Option.bind (Json.member "ts" e) Json.number));
        check cb "has dur" true (Option.is_some (Option.bind (Json.member "dur" e) Json.number));
        check cb "has tid" true (Option.is_some (Option.bind (Json.member "tid" e) Json.number))
      end)
    events

(* ---------- perf-history store and gate ---------- *)

let mk_entry ?(alloc = 1000.0) id score =
  let w = Work.zero () in
  w.Work.comparisons <- score;
  {
    Perf_history.entry_id = id;
    work = w;
    allocated_bytes = alloc;
    seconds = 0.001;
  }

let mk_datapoint ~timestamp entries =
  { Perf_history.bench = "test"; timestamp; meta = []; entries }

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sjos_hist_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  dir

let test_history_store () =
  let dir = temp_dir () in
  let d1 = mk_datapoint ~timestamp:100 [ mk_entry "q1" 50 ] in
  let d2 = mk_datapoint ~timestamp:200 [ mk_entry "q1" 50 ] in
  let p1 = Perf_history.append ~dir d1 in
  let p2 = Perf_history.append ~dir d2 in
  check cb "files differ" true (p1 <> p2);
  (match Perf_history.history ~dir ~bench:"test" with
  | [ h1; h2 ] ->
      check cb "oldest first" true (h1 = p1 && h2 = p2)
  | files -> Alcotest.failf "expected 2 history files, got %d" (List.length files));
  (* latest.json exists, reloads, but is not part of the history *)
  let latest = Filename.concat dir "test-latest.json" in
  check cb "latest written" true (Sys.file_exists latest);
  (match Perf_history.load latest with
  | Ok d -> check ci "latest is the newest datapoint" 200 d.Perf_history.timestamp
  | Error m -> Alcotest.fail m);
  (* same-second append gets a suffixed file instead of clobbering *)
  let p2' = Perf_history.append ~dir d2 in
  check cb "same-second suffix" true (p2' <> p2);
  check ci "history grew" 3
    (List.length (Perf_history.history ~dir ~bench:"test"))

let verdict_label = function
  | Perf_history.Pass _ -> "pass"
  | Perf_history.Bootstrap _ -> "bootstrap"
  | Perf_history.Fail _ -> "fail"

let test_gate_verdicts () =
  let dir = temp_dir () in
  let gate () = verdict_label (Perf_history.gate ~dir ~bench:"test" ()) in
  check Alcotest.string "empty store bootstraps" "bootstrap" (gate ());
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:100 [ mk_entry "q1" 1000 ]));
  check Alcotest.string "single datapoint bootstraps" "bootstrap" (gate ());
  (* equal work, equal alloc: pass *)
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:200 [ mk_entry "q1" 1000 ]));
  check Alcotest.string "identical run passes" "pass" (gate ());
  (* an improvement passes *)
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:300 [ mk_entry "q1" 700 ]));
  check Alcotest.string "improvement passes" "pass" (gate ());
  (* a >1% work regression fails *)
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:400 [ mk_entry "q1" 720 ]));
  check Alcotest.string "work regression fails" "fail" (gate ());
  (* an entry disappearing fails even with scores fine *)
  ignore
    (Perf_history.append ~dir
       (mk_datapoint ~timestamp:500 [ mk_entry "q1" 720; mk_entry "q2" 10 ]));
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:600 [ mk_entry "q1" 720 ]));
  check Alcotest.string "missing entry fails" "fail" (gate ())

let test_gate_alloc_tolerance () =
  let base = mk_datapoint ~timestamp:1 [ mk_entry ~alloc:1000.0 "q" 100 ] in
  let within = mk_datapoint ~timestamp:2 [ mk_entry ~alloc:1080.0 "q" 100 ] in
  let beyond = mk_datapoint ~timestamp:3 [ mk_entry ~alloc:1200.0 "q" 100 ] in
  check Alcotest.string "alloc within 10% passes" "pass"
    (verdict_label
       (Perf_history.compare_datapoints ~baseline:base ~current:within ()));
  check Alcotest.string "alloc beyond 10% fails" "fail"
    (verdict_label
       (Perf_history.compare_datapoints ~baseline:base ~current:beyond ()));
  (* work tolerance is configurable *)
  let more_work = mk_datapoint ~timestamp:4 [ mk_entry "q" 105 ] in
  check Alcotest.string "5% fails at default tolerance" "fail"
    (verdict_label
       (Perf_history.compare_datapoints ~baseline:base ~current:more_work ()));
  check Alcotest.string "5% passes at 10% tolerance" "pass"
    (verdict_label
       (Perf_history.compare_datapoints ~work_tolerance:0.10 ~baseline:base
          ~current:more_work ()))

let test_datapoint_json_roundtrip () =
  let d =
    {
      Perf_history.bench = "perf";
      timestamp = 12345;
      meta = [ ("scale", Json.Float 0.5) ];
      entries = [ mk_entry "a" 10; mk_entry "b" 20 ];
    }
  in
  match Perf_history.of_string (Json.to_string (Perf_history.to_json d)) with
  | Error msg -> Alcotest.failf "datapoint roundtrip: %s" msg
  | Ok d' ->
      check Alcotest.string "bench" d.Perf_history.bench d'.Perf_history.bench;
      check ci "timestamp" d.Perf_history.timestamp d'.Perf_history.timestamp;
      check ci "entries" 2 (List.length d'.Perf_history.entries);
      List.iter2
        (fun (a : Perf_history.entry) (b : Perf_history.entry) ->
          check Alcotest.string "id" a.Perf_history.entry_id
            b.Perf_history.entry_id;
          Helpers.check_work "entry work" a.Perf_history.work
            b.Perf_history.work)
        d.Perf_history.entries d'.Perf_history.entries

let suite =
  [
    Alcotest.test_case "scoped deltas isolate and absorb" `Quick
      test_scoped_isolation;
    Alcotest.test_case "pool absorbs task work at the barrier" `Quick
      test_pool_absorbs_task_work;
    Alcotest.test_case "work json roundtrip + score" `Quick test_json_roundtrip;
    Alcotest.test_case "work identical across 1/2/4 domains" `Quick
      test_work_identical_across_domains;
    Alcotest.test_case "work identical across engines" `Quick
      test_work_identical_across_engines;
    Alcotest.test_case "repeat runs bit-identical" `Quick
      test_repeat_run_determinism;
    Alcotest.test_case "exhausted run keeps its partial work" `Quick
      test_exhausted_run_keeps_partial_work;
    Alcotest.test_case "pager charges page_touches" `Quick
      test_pager_page_touches;
    Alcotest.test_case "chrome trace export round-trips" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "perf-history store append/list/load" `Quick
      test_history_store;
    Alcotest.test_case "gate: bootstrap/pass/regression/missing" `Quick
      test_gate_verdicts;
    Alcotest.test_case "gate: allocation and tolerance knobs" `Quick
      test_gate_alloc_tolerance;
    Alcotest.test_case "datapoint json roundtrip" `Quick
      test_datapoint_json_roundtrip;
  ]
