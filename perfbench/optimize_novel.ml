(* optimize-novel: one operation is a [Database.prepare] (no exec) of a
   pattern the database has never seen, 4-16 nodes, on Pers at the
   paper's 5K elements (Mem backend, plan cache on).  Every run prepares
   more distinct patterns than the plan cache holds, so lookups miss,
   insert and evict. *)

open Sjos_engine
module Optimizer = Sjos_core.Optimizer
module Plan_cache = Sjos_cache.Plan_cache

let storage = Util.Column_store.mem
let opts = Query_opts.make ~pool:Util.pool ()
let setups = 25

(* more than the plan cache's capacity, so the deterministic counts
   below cover lookups that evict *)
let counted_ops = 300

(* Table 2 of the paper: plans considered on Q.Pers.3.d (Pers 5K) by DP,
   DPP', DPP, DPAP-EB, DPAP-LD and FP, with the plan cache off. *)
let table2 path =
  let db, _ = Layers.setup ~storage ~req:(-1) path in
  let q = Workload.q_pers_3_d in
  let te = Optimizer.default_te q.Workload.pattern in
  List.map
    (fun algo ->
      let o = Query_opts.with_pool (Experiment.cold_opts algo) (Some Util.pool) in
      (Database.prepared_result (Database.prepare ~opts:o db q.Workload.pattern))
        .Optimizer.plans_considered)
    Optimizer.[ Dp; Dpp_no_lookahead; Dpp; Dpap_eb te; Dpap_ld; Fp ]

let is_bigdp (r : Optimizer.result) =
  match r.Optimizer.algorithm with Optimizer.Big_dp _ -> true | _ -> false

let run ~dir ~seconds ~traced =
  let path = Filename.concat dir "doc.xml" in
  let texts = Array.of_list (Util.read_lines (Filename.concat dir "patterns.txt")) in
  Spans.on := traced;
  (* set up several times, keeping only the last database *)
  let last = ref None and setup_stats = ref [] in
  for k = 0 to setups - 1 do
    last := None;
    Gc.compact ();
    let req = 1_000_000 + k in
    let (db, st), _ =
      Spans.timed ~req "bench" "bench.setup" (fun () -> Layers.setup ~storage ~req path)
    in
    Layers.probe_store_build ~storage ~req st db;
    setup_stats := st :: !setup_stats;
    last := Some db
  done;
  let db = Option.get !last and setup_stats = !setup_stats in
  Spans.on := false;
  Gc.compact ();
  let t_start = Util.now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let trace_until = Util.trace_until ~t_start ~seconds in
  let w_end = ref t_start in
  let cache0 = Plan_cache.stats (Database.plan_cache db) in
  let cache_at_counted = ref cache0 in
  let lat = ref [] and untraced_op = ref [] and traced_op = ref [] in
  let failed = ref 0 and errors = ref [] in
  let considered = ref [] and expanded = ref [] and bigdp = ref 0 in
  let i = ref 0 in
  while
    !i < Array.length texts
    && (!i < counted_ops || Util.now_ns () < deadline || (traced && !untraced_op = []))
  do
    Spans.on := traced && Util.now_ns () < trace_until;
    let req = !i in
    let o0 = Util.now_ns () in
    let (pat, prep, prep_id, ms), _ =
      Spans.timed ~req "bench" "bench.op" (fun () ->
          let pat = Layers.parse ~req texts.(req) in
          let t0 = Util.now_ns () in
          let prep, prep_id =
            Spans.timed ~req "engine" "engine.prepare" (fun () ->
                Database.prepare ~opts db pat)
          in
          (pat, prep, prep_id, Util.ms_since t0))
    in
    let searched = not (Database.prepared_from_cache prep) in
    Layers.decompose ~parent:prep_id ~req ~searched db pat;
    let op_s = Util.s_since o0 in
    if !Spans.on then begin
      traced_op := op_s :: !traced_op;
      w_end := Util.now_ns ()
    end
    else untraced_op := op_s :: !untraced_op;
    lat := ms :: !lat;
    let r = Database.prepared_result prep in
    (match Sjos_plan.Properties.validate pat r.Optimizer.plan with
    | Ok () -> ()
    | Error msg ->
        incr failed;
        errors := Printf.sprintf "pattern %d: invalid plan: %s" req msg :: !errors);
    considered := r.Optimizer.plans_considered :: !considered;
    expanded := r.Optimizer.statuses_expanded :: !expanded;
    if is_bigdp r then incr bigdp;
    incr i;
    if !i = counted_ops then cache_at_counted := Plan_cache.stats (Database.plan_cache db)
  done;
  let wall_s = Util.s_since t_start in
  Spans.on := false;
  let ops = !i in
  if ops < counted_ops then begin
    incr failed;
    errors := "pattern stream shorter than the counted prefix" :: !errors
  end;
  let cache1 = Plan_cache.stats (Database.plan_cache db) in
  let first n l = List.filteri (fun k _ -> k < n) (List.rev l) in
  let sum_first l = List.fold_left ( + ) 0 (first counted_ops l) in
  let c = !cache_at_counted in
  let counts =
    List.map
      (fun (k, v) -> (k, Util.count_json [ v ]))
      [
        ("prefix_ops", min ops counted_ops);
        ("plans_considered", sum_first !considered);
        ("statuses_expanded", sum_first !expanded);
        ("cache_hits", c.Plan_cache.hits - cache0.Plan_cache.hits);
        ("cache_misses", c.Plan_cache.misses - cache0.Plan_cache.misses);
        ("cache_evictions", c.Plan_cache.evictions - cache0.Plan_cache.evictions);
      ]
  in
  let fops = float_of_int (max 1 ops) in
  let mean_int l = float_of_int (List.fold_left ( + ) 0 l) /. fops in
  let lookups = cache1.Plan_cache.hits + cache1.Plan_cache.misses
                - cache0.Plan_cache.hits - cache0.Plan_cache.misses in
  let peak_heap_mb = Util.peak_heap_mb () in
  (* after the heap reading: the DP search of Table 2 is not this
     workload's memory *)
  let table2_counts = table2 (Filename.concat dir "table2.xml") in
  {
    Report.attempted = ops;
    failed = !failed;
    errors = !errors;
    e2e =
      [
        Util.metric "setup_s" "s" (Util.median (List.map (fun s -> s.Layers.seconds) setup_stats));
        Util.metric "latency_p50_ms" "ms" (Util.median !lat);
        Util.metric "latency_p90_ms" "ms" (Util.quantile 0.9 !lat);
        Util.metric "throughput_per_s" "1/s" (float_of_int ops /. wall_s);
        Util.metric "peak_heap_mb" "MB" peak_heap_mb;
      ];
    samples = [ ("setup_s", setups); ("latency_ms", ops) ];
    counts;
    answers =
      Util.Json.Obj
        [ ("table2", Util.Json.List (List.map (fun n -> Util.Json.Int n) table2_counts)) ];
    config = Util.config_json ~storage;
    detail = [];
    trace =
      (if traced then
         Some
           {
             Report.w0 = t_start;
             w1 = !w_end;
             ops = List.length !traced_op;
             untraced_op_s = !untraced_op;
             traced_op_s = !traced_op;
             setups = setup_stats;
             doc_mb = Util.file_mb path;
             work_per_op = Util.Work.zero ();
             extra =
               Report.extra ~pager_misses:0.0 ~pager_hit_ratio:0.0 ~page_touches:0.0
                 ~cache_hit_ratio:
                   (if lookups = 0 then 0.0
                    else
                      float_of_int (cache1.Plan_cache.hits - cache0.Plan_cache.hits)
                      /. float_of_int lookups)
                 ~cache_evictions:
                   (float_of_int (c.Plan_cache.evictions - cache0.Plan_cache.evictions))
                 ~plans_considered:(mean_int !considered)
                 ~statuses_expanded:(mean_int !expanded)
                 ~bigdp_share:(float_of_int !bigdp /. fops)
                 ~exec_alloc_mb:0.0 ~shed:0.0;
           }
       else None);
  }
