(* cold-mbench: one operation is a cold `sjos query`-style pass over the
   paper-size Mbench document — load_file -> warm -> for each query,
   parse + cold prepare (plan cache off) + exec — on the Mem backend.
   Every pass reloads the file: the attribute secondary indexes are
   built lazily per database, so only a fresh database is cold. *)

open Sjos_engine
module Work = Util.Work
module Executor = Sjos_exec.Executor

let storage = Util.Column_store.mem

let opts =
  Query_opts.make ~use_cache:false ~pool:Util.pool ()

type query_result = {
  id : string;
  matches : int;
  digest : string;
  work : Work.t;
  plans_considered : int;
  statuses_expanded : int;
  exec_alloc_mb : float;
}

type pass = {
  queries_ms : float;  (** parse + prepare + exec of the query set *)
  results : query_result list;
  setup : Layers.setup;
}

let run_pass ~req ~path queries =
  let t0 = Util.now_ns () in
  let (db, setup, runs), _ =
    Spans.timed ~req "bench" "bench.cold_pass" (fun () ->
        let db, setup = Layers.setup ~storage ~req path in
        let runs =
          List.map
            (fun (id, text) ->
              let w0 = Work.snapshot () in
              let pat = Layers.parse ~req text in
              let prep, prep_id =
                Spans.timed ~req "engine" "engine.prepare" (fun () ->
                    Database.prepare ~opts db pat)
              in
              let run, exec_alloc_mb =
                Util.alloc_mb (fun () ->
                    Spans.span ~req "exec" "exec.exec" (fun () -> Database.exec prep))
              in
              let work = Work.diff ~after:(Work.snapshot ()) ~before:w0 in
              (id, pat, prep_id, (run, exec_alloc_mb), work))
            queries
        in
        (db, setup, runs))
  in
  let total_s = Util.s_since t0 in
  let queries_ms = (total_s -. setup.Layers.seconds) *. 1000.0 in
  (* decomposition probes run after the pass, outside every root span *)
  Layers.probe_store_build ~storage ~req setup db;
  List.iter
    (fun (_, pat, prep_id, _, _) ->
      Layers.decompose ~parent:prep_id ~req ~searched:true db pat)
    runs;
  let results =
    List.map
      (fun (id, _, _, ((run : Database.query_run), exec_alloc_mb), work) ->
        let tuples = run.exec.Executor.tuples in
        {
          id;
          matches = Array.length tuples;
          digest = Sjos_serve.Server.result_digest tuples;
          work;
          plans_considered = run.opt.Sjos_core.Optimizer.plans_considered;
          statuses_expanded = run.opt.Sjos_core.Optimizer.statuses_expanded;
          exec_alloc_mb;
        })
      runs
  in
  ( { queries_ms; results; setup },
    db,
    List.map (fun (id, pat, _, (run, _), _) -> (id, pat, run)) runs )

(* The answer of each query, for pins.json: its match count and the
   order-insensitive digest of its result set.  Seeds without pins are
   still checked: the independent counter must agree on the count, and
   the holistic TwigStack engine must return the same set as the binary
   plan the optimizer chose. *)
let answers_and_checks db runs =
  let holistic =
    Query_opts.make ~use_cache:false ~engine:Sjos_core.Optimizer.Holistic
      ~pool:Util.pool ()
  in
  List.map
    (fun (id, pat, (run : Database.query_run)) ->
      let digest = Util.set_digest run.exec.Executor.tuples in
      let h = Database.run ~opts:holistic db pat in
      let matches = Array.length run.exec.Executor.tuples in
      let problems =
        (if Oracle.count (Database.document db) pat <> matches then
           [ id ^ ": match count differs from the independent counter" ]
         else [])
        @
        if Util.set_digest h.exec.Executor.tuples <> digest then
          [ id ^ ": binary and holistic engines disagree" ]
        else []
      in
      (id, matches, digest, problems))
    runs

let run ~dir ~seconds ~traced =
  let path = Filename.concat dir "doc.xml" in
  let queries =
    List.map
      (fun l ->
        match String.index_opt l '\t' with
        | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> failwith "queries.txt: expected id<TAB>pattern")
      (Util.read_lines (Filename.concat dir "queries.txt"))
  in
  let deadline = Int64.add (Util.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  (* the traced run traces its passes for the first two thirds of the
     time and leaves the rest untraced, to measure the overhead against *)
  let passes = ref [] and untraced_op = ref [] and traced_op = ref [] in
  let last_runs = ref [] and last_db = ref None in
  let k = ref 0 in
  let t_start = Util.now_ns () in
  let trace_until = Util.trace_until ~t_start ~seconds in
  let w_end = ref t_start in
  while !k < 2 || Util.now_ns () < deadline || (traced && !untraced_op = []) do
    (* drop the previous pass's database before loading the next *)
    Option.iter Database.dispose !last_db;
    last_db := None;
    last_runs := [];
    Gc.compact ();
    Spans.on := traced && (!k = 0 || Util.now_ns () < trace_until);
    let p0 = Util.now_ns () in
    let pass, db, runs = run_pass ~req:!k ~path queries in
    let op_s = Util.s_since p0 in
    if !Spans.on then begin
      traced_op := op_s :: !traced_op;
      w_end := Util.now_ns ()
    end
    else untraced_op := op_s :: !untraced_op;
    passes := pass :: !passes;
    last_runs := runs;
    last_db := Some db;
    incr k
  done;
  (* passes per second of pass time: the compaction between passes is
     the harness's, not the program's *)
  let pass_s = Util.sum !untraced_op +. Util.sum !traced_op in
  let passes = List.rev !passes in
  (* checks, untimed: every pass returns what the first did, and the
     last pass's answers pass [answers_and_checks] *)
  let first = List.hd passes in
  let failed = ref 0 and errors = ref [] in
  List.iter
    (fun p ->
      List.iter2
        (fun (a : query_result) (b : query_result) ->
          if a.matches <> b.matches || a.digest <> b.digest then begin
            incr failed;
            errors := Printf.sprintf "%s: pass disagrees with first pass" a.id :: !errors
          end)
        p.results first.results)
    passes;
  Spans.on := false;
  let peak_heap_mb = Util.peak_heap_mb () in
  let answers = answers_and_checks (Option.get !last_db) !last_runs in
  List.iter
    (fun (_, _, _, problems) ->
      failed := !failed + List.length problems;
      errors := problems @ !errors)
    answers;
  Option.iter Database.dispose !last_db;
  let attempted = List.length passes * List.length queries in
  let e2e =
    [
      Util.metric "setup_s" "s" (Util.median (List.map (fun p -> p.setup.Layers.seconds) passes));
      Util.metric "latency_p50_ms" "ms"
        (Util.median (List.map (fun p -> p.queries_ms) passes));
      Util.metric "latency_p90_ms" "ms"
        (Util.quantile 0.9 (List.map (fun p -> p.queries_ms) passes));
      Util.metric "throughput_per_s" "1/s" (float_of_int (List.length passes) /. pass_s);
      Util.metric "peak_heap_mb" "MB" peak_heap_mb;
    ]
  in
  let counts =
    List.concat_map
      (fun (q : query_result) ->
        let per_pass f =
          List.map
            (fun p -> f (List.find (fun (r : query_result) -> r.id = q.id) p.results))
            passes
        in
        List.map
          (fun (field, f) -> (q.id ^ "." ^ field, Util.count_json (per_pass f)))
          [
            ("matches", fun r -> r.matches);
            ("comparisons", fun r -> r.work.Work.comparisons);
            ("tuples_emitted", fun r -> r.work.Work.tuples_emitted);
            ("items_skipped", fun r -> r.work.Work.items_skipped);
            ("candidates_scanned", fun r -> r.work.Work.candidates_scanned);
            ("plans_considered", fun r -> r.plans_considered);
            ("statuses_expanded", fun r -> r.statuses_expanded);
          ])
      first.results
  in
  let answers =
    Util.Json.Obj
      (List.map
         (fun (id, matches, digest, _) ->
           ( id,
             Util.Json.Obj
               [ ("matches", Util.Json.Int matches); ("set_digest", Util.Json.Str digest) ] ))
         answers)
  in
  let traced_passes = List.filter (fun p -> not (Float.is_nan p.setup.Layers.parse_alloc_mb)) passes in
  {
    Report.attempted;
    failed = !failed;
    errors = !errors;
    e2e;
    samples =
      [ ("setup_s", List.length passes); ("latency_ms", List.length passes);
        ("queries_per_pass", List.length queries) ];
    counts;
    answers;
    config = Util.config_json ~storage;
    detail =
      [
        ("setup_s_by_pass", Util.Json.List (List.map (fun p -> Util.Json.Float p.setup.Layers.seconds) passes));
        ( "queries_ms_by_pass",
          Util.Json.List (List.map (fun p -> Util.Json.Float p.queries_ms) passes) );
      ];
    trace =
      (if traced then
         Some
           {
             Report.w0 = t_start;
             w1 = !w_end;
             ops = List.length !traced_op;
             untraced_op_s = !untraced_op;
             traced_op_s = !traced_op;
             setups = List.map (fun p -> p.setup) traced_passes;
             doc_mb = Util.file_mb path;
             work_per_op =
               (let rs = first.results in
                List.fold_left
                  (fun acc (r : query_result) ->
                    Work.merge_into acc r.work;
                    acc)
                  (Work.zero ()) rs);
             extra =
               (let sumf f = Util.sum (List.map f first.results) in
                let sumi f = float_of_int (List.fold_left (fun a r -> a + f r) 0 first.results) in
                Report.extra ~pager_misses:0.0 ~pager_hit_ratio:0.0 ~page_touches:0.0
                  ~cache_hit_ratio:0.0 ~cache_evictions:0.0
                  ~plans_considered:(sumi (fun r -> r.plans_considered))
                  ~statuses_expanded:(sumi (fun r -> r.statuses_expanded))
                  ~bigdp_share:0.0
                  ~exec_alloc_mb:(sumf (fun r -> r.exec_alloc_mb))
                  ~shed:0.0);
           }
       else None);
  }
