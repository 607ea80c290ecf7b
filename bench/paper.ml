(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 4) and runs Bechamel micro-benchmarks of the
   optimization algorithms themselves.

   Tables/figures are printed with the same rows/series the paper reports;
   absolute numbers are in machine-independent cost units plus host
   wall-clock, so the comparison with the paper is about *shape*
   (who wins, by what factor, where crossovers happen) - see EXPERIMENTS.md.

   The deterministic invariants (Table 1 and the plan cache ran, the
   guard's degraded run keeps its matches, the chaos sweep never leaks a
   raw exception and lying cardinalities never change a result) are
   gates; the Table 1-3 and cache-speedup checks are printed only.
   Scale defaults to 0.5; SJOS_BENCH_FAST skips the x500 fold and the
   Bechamel runs.

   Run with: dune exec bench/main.exe [paper] *)

open Bechamel
open Bechamel.Toolkit
open Sjos_engine
open Sjos_core

let scale = Harness.scale ~default:0.5
let fast = Harness.fast
let scaled = Harness.scaled ~floor:300 scale

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1: plan quality and optimization time for the 8 workload
   queries x 5 algorithms + bad plan.                                   *)

let table1 () =
  section "Table 1: query optimization and plan evaluation (8 queries)";
  let sizes ds = scaled (Workload.default_size ds) in
  let rows = Experiment.table1 ~sizes ~max_tuples:50_000_000 () in
  Experiment.print_table1 rows;
  let bench_json = "BENCH_1.json" in
  Sjos_obs.Report.write_file bench_json (Experiment.table1_to_json rows);
  Printf.printf "wrote %s (8 queries x 5 algorithms + bad plan)\n" bench_json;
  (* the paper's headline claims, checked mechanically *)
  let all_pass = ref true in
  List.iter
    (fun (row : Experiment.table1_row) ->
      let units algo =
        match List.find_opt (fun (a, _) -> a = algo) row.Experiment.cells with
        | Some (_, c) -> c.Experiment.eval_units
        | None -> nan
      in
      let dp = units Optimizer.Dp and dpp = units Optimizer.Dpp in
      if Float.abs (dp -. dpp) > 1e-6 then begin
        all_pass := false;
        Printf.printf "!! %s: DP and DPP disagree (%.1f vs %.1f)\n"
          row.Experiment.query.Workload.id dp dpp
      end;
      if row.Experiment.bad.Experiment.eval_units < dp then begin
        all_pass := false;
        Printf.printf "!! %s: bad plan beat DP\n"
          row.Experiment.query.Workload.id
      end)
    rows;
  Printf.printf "advisory check: DP=DPP everywhere, bad plan never wins: %s\n"
    (if !all_pass then "PASS" else "FAIL");
  (* the gate: every query ran every algorithm, and no algorithm's plan
     hit the tuple-materialization bound *)
  ( "table1_ran",
    rows <> []
    && List.for_all
         (fun (row : Experiment.table1_row) ->
           row.Experiment.cells <> []
           && List.for_all
                (fun (_, (c : Experiment.cell)) ->
                  c.Experiment.plans_considered >= 0
                  && c.Experiment.matches >= 0)
                row.Experiment.cells)
         rows )

(* ------------------------------------------------------------------ *)
(* Table 2: optimization time and plans considered for Q.Pers.3.d.     *)

let table2 () =
  section "Table 2: optimization effort for Q.Pers.3.d";
  let rows = Experiment.table2 ~size:(scaled 5_000) () in
  Experiment.print_table2 rows;
  let considered name =
    (List.find (fun r -> r.Experiment.algo_name = name) rows)
      .Experiment.considered
  in
  let ordered =
    considered "DP" >= considered "DPP'"
    && considered "DPP'" > considered "DPP"
    && considered "DPP" > considered "DPAP-EB"
    && considered "DPAP-EB" > considered "FP"
    && considered "DPAP-LD" > considered "FP"
  in
  Printf.printf
    "advisory check: plans considered DP >= DPP' > DPP > DPAP-EB > FP and \
     DPAP-LD > FP: %s\n"
    (if ordered then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Table 3: effect of data size via folding factors.                   *)

let table3 () =
  section "Table 3: data size vs plan execution (Q.Pers.3.d)";
  let folds = if fast then [ 1; 10; 100 ] else [ 1; 10; 100; 500 ] in
  (* base small enough that the x500 folding still executes within the
     tuple-materialization safety bound *)
  let rows = Experiment.table3 ~base_size:(scaled 600) ~folds () in
  Experiment.print_table3 rows;
  (* claim: DPAP-LD degrades relative to DP as data grows *)
  let units label fold =
    let row = List.find (fun r -> r.Experiment.label = label) rows in
    let _, u, _ =
      List.find (fun (f, _, _) -> f = fold) row.Experiment.per_fold
    in
    u
  in
  let first_fold = List.hd folds in
  let last_fold = List.nth folds (List.length folds - 1) in
  (* The paper's Table-3 narrative: with growing data the optimum becomes a
     fully-pipelined plan (DP converges to FP), while left-deep plans, which
     must sort materialized intermediate results, stay strictly worse. *)
  let fp_gap fold = units "FP" fold /. units "DP" fold in
  let ld_gap fold = units "DPAP-LD" fold /. units "DP" fold in
  let converges = fp_gap last_fold <= fp_gap first_fold +. 1e-9 in
  let ld_worse = ld_gap last_fold > 1.0 in
  Printf.printf
    "advisory check: FP/DP gap shrinks with data (x%d: %.2f -> x%d: %.2f) and \
     DPAP-LD stays worse at x%d (%.2fx): %s\n"
    first_fold (fp_gap first_fold) last_fold (fp_gap last_fold) last_fold
    (ld_gap last_fold)
    (if converges && ld_worse then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: the Te sweep.                                      *)

let figures () =
  section "Figure 7: DPAP-EB Te sweep, folding x100 (execution dominates)";
  Experiment.print_figure ~title:""
    (Experiment.figure_te ~base_size:(scaled 2_000) ~fold:100 ());
  section "Figure 8: DPAP-EB Te sweep, folding x1 (optimization matters)";
  Experiment.print_figure ~title:""
    (Experiment.figure_te ~base_size:(scaled 2_000) ~fold:1 ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: statistically sound per-call timing of the
   six optimization algorithms on the Table 2 query.                   *)

let micro () =
  section "Bechamel: optimizer micro-benchmarks (ns/run, Q.Pers.3.d)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let te = Optimizer.default_te pat in
  let mk name algo =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Optimizer.optimize ~provider algo pat)))
  in
  let tests =
    Test.make_grouped ~name:"optimize" ~fmt:"%s/%s"
      [
        mk "dp" Optimizer.Dp;
        mk "dpp-nl" Optimizer.Dpp_no_lookahead;
        mk "dpp" Optimizer.Dpp;
        mk "dpap-eb" (Optimizer.Dpap_eb te);
        mk "dpap-ld" Optimizer.Dpap_ld;
        mk "fp" Optimizer.Fp;
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-20s %12.0f ns/run\n" name ns)
    rows

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's tables: design choices called out in
   DESIGN.md.                                                           *)

(* Ablation A: how much does ordering DPP's priority list by Cost+ubCost
   (vs plain Cost) matter?  And the lookahead rule (DPP vs DPP') is shown
   in Table 2 already. *)
let ablation_priority () =
  section "Ablation: DPP priority list ordering (Cost+ubCost vs Cost)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let run label ~prioritize_by_ub =
    let ctx = Search.make_ctx ~provider pat in
    let t0 = Sjos_obs.Clock.now_ns () in
    let cost, _ = Dpp.run ~prioritize_by_ub ctx in
    Printf.printf "%-24s cost=%.0f plans=%d expanded=%d time=%.3fms\n" label
      cost ctx.Search.effort.Effort.considered ctx.Search.effort.Effort.expanded
      (Sjos_obs.Clock.elapsed_seconds ~since:t0 *. 1000.)
  in
  run "DPP (Cost+ubCost)" ~prioritize_by_ub:true;
  run "DPP (Cost only)" ~prioritize_by_ub:false

(* Ablation B: optimizer scaling with pattern size — where DP's
   exponential status space starts to hurt and DPP's pruning pays off. *)
let ablation_scaling () =
  section "Ablation: optimizer effort vs pattern size (path patterns)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  Printf.printf "%-6s | %-22s | %-22s | %-22s\n" "nodes" "DP plans/ms"
    "DPP plans/ms" "FP plans/ms";
  List.iter
    (fun n ->
      (* a path alternating the recursive tags so candidates stay non-empty *)
      let tags =
        List.init n (fun i ->
            match i mod 3 with 0 -> "manager" | 1 -> "employee" | _ -> "manager")
      in
      let labels = List.map Sjos_storage.Candidate.of_tag tags in
      let axes = List.init (n - 1) (fun _ -> Sjos_xml.Axes.Descendant) in
      let pat = Sjos_pattern.Shapes.path labels axes in
      let provider = Database.provider db pat in
      (* the searches run directly on a context: past 7 nodes the
         optimizer would re-tier DP and DPP onto the subset DP *)
      let effort run =
        let ctx = Search.make_ctx ~provider pat in
        let t0 = Sjos_obs.Clock.now_ns () in
        ignore (run ctx);
        ( ctx.Search.effort.Effort.considered,
          Sjos_obs.Clock.elapsed_seconds ~since:t0 *. 1000. )
      in
      let dp_p, dp_t = effort Dp.run in
      let dpp_p, dpp_t = effort (fun ctx -> Dpp.run ctx) in
      let fp_p, fp_t = effort Fp.run in
      Printf.printf "%-6d | %10d %9.2f | %10d %9.2f | %10d %9.2f\n" n dp_p
        dp_t dpp_p dpp_t fp_p fp_t)
    [ 3; 4; 5; 6; 7; 8 ]

(* Ablation C: binary structural-join plans vs holistic multi-way joins
   (PathStack on paths, TwigStack-style on twigs) — the paper's §6 future
   work, implemented as an extension. *)
let ablation_holistic () =
  section "Ablation: optimal binary plans vs holistic joins (all queries)";
  Printf.printf "%-14s | %-9s | %14s | %14s | %10s\n" "query" "holistic"
    "binary (kU)" "holistic (kU)" "matches";
  List.iter
    (fun (q : Workload.query) ->
      let db =
        Database.of_document
          (Workload.generate
             ~size:(scaled (Workload.default_size q.Workload.dataset))
             q.Workload.dataset)
      in
      let cell =
        Experiment.run_cell ~opts:(Experiment.cold_opts Optimizer.Dpp) db
          q.Workload.pattern
      in
      let is_path = Sjos_pattern.Pattern.is_path q.Workload.pattern in
      let out, work =
        Sjos_obs.Work.measure (fun () ->
            if is_path then
              Sjos_exec.Path_stack.run (Database.index db) q.Workload.pattern
            else Sjos_exec.Twig_join.run (Database.index db) q.Workload.pattern)
      in
      let holistic_units =
        Sjos_exec.Executor.cost_units (Database.factors db) work
      in
      Printf.printf "%-14s | %-9s | %14.1f | %14.1f | %10d\n" q.Workload.id
        (if is_path then "PathStack" else "TwigStack")
        (cell.Experiment.eval_units /. 1000.)
        (holistic_units /. 1000.)
        (Array.length out))
    Workload.queries

(* Ablation D: Stack-Tree vs MPMGJN (the SIGMOD'01 merge join the
   Stack-Tree algorithms were designed to beat) as data nesting grows. *)
let ablation_mpmgjn () =
  section "Ablation: Stack-Tree vs MPMGJN scan work (manager//name)";
  Printf.printf "%-10s | %12s | %12s | %10s\n" "pers size" "STJ ops"
    "MPMGJN steps" "pairs";
  List.iter
    (fun size ->
      let doc = Workload.generate ~size Workload.Pers in
      let idx = Sjos_storage.Element_index.build doc in
      let scan slot tag =
        Sjos_exec.Operators.index_scan ~width:2 ~slot
          (Sjos_storage.Element_index.lookup idx tag)
      in
      let st, w1 =
        Sjos_obs.Work.measure (fun () ->
            Sjos_exec.Stack_tree.join ~doc ~axis:Sjos_xml.Axes.Descendant
              ~algo:Sjos_plan.Plan.Stack_tree_desc
              ~anc:(scan 0 "manager", 0)
              ~desc:(scan 1 "name", 1)
              ())
      in
      let _, w2 =
        Sjos_obs.Work.measure (fun () ->
            Sjos_exec.Merge_join.join ~doc ~axis:Sjos_xml.Axes.Descendant
              ~anc:(scan 0 "manager", 0)
              ~desc:(scan 1 "name", 1))
      in
      Printf.printf "%-10d | %12d | %12d | %10d\n" size
        w1.Sjos_obs.Work.stack_ops w2.Sjos_obs.Work.stack_ops
        (Array.length st))
    [ scaled 1_000; scaled 4_000; scaled 16_000 ]

(* Ablation E: buffer-pool sensitivity — repeated candidate-list scans of
   the Table-1 workload through an LRU pool of varying size (the SHORE
   16 MB buffer pool of the paper's setup, §4). *)
let ablation_buffer_pool () =
  section "Ablation: buffer-pool hit ratio for workload candidate scans";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 20_000) Workload.Pers)
  in
  let idx = Database.index db in
  let tags = [ "manager"; "employee"; "department"; "name" ] in
  let total_items =
    List.fold_left
      (fun acc tag -> acc + Sjos_storage.Element_index.cardinality idx tag)
      0 tags
  in
  let page_size = 64 in
  let total_pages = (total_items + page_size - 1) / page_size in
  Printf.printf
    "candidate lists: %d items over ~%d pages of %d items each\n"
    total_items total_pages page_size;
  Printf.printf "%-12s | %10s | %10s | %10s\n" "pool pages" "accesses"
    "misses" "hit ratio";
  List.iter
    (fun pool_pages ->
      let pager = Sjos_storage.Pager.create ~page_size ~pool_pages () in
      let segments =
        List.map
          (fun tag ->
            Sjos_storage.Pager.allocate pager
              ~items:(Sjos_storage.Element_index.cardinality idx tag))
          tags
      in
      (* two optimization+execution rounds re-read every candidate list,
         as the 5 optimizers of Table 1 would *)
      for _ = 1 to 2 do
        List.iter (Sjos_storage.Pager.scan pager) segments
      done;
      let s = Sjos_storage.Pager.stats pager in
      Printf.printf "%-12d | %10d | %10d | %9.2f%%\n" pool_pages
        s.Sjos_storage.Pager.accesses s.Sjos_storage.Pager.misses
        (100. *. Sjos_storage.Pager.hit_ratio pager))
    [ max 1 (total_pages / 8); max 1 (total_pages / 2); total_pages + 8 ]

(* Extension F: randomized search (II / SA) vs the paper's algorithms. *)
let ablation_randomized () =
  section "Ablation: randomized optimizers (II/SA) vs exact search";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let report label run =
    let ctx = Search.make_ctx ~provider pat in
    let t0 = Sjos_obs.Clock.now_ns () in
    let cost, _ = run ctx in
    Printf.printf "%-22s est_cost=%10.0f plans=%5d time=%.3fms\n" label cost
      ctx.Search.effort.Effort.considered
      (Sjos_obs.Clock.elapsed_seconds ~since:t0 *. 1000.)
  in
  report "DPP (optimal)" Dpp.run;
  report "Iterative Improvement" (Randomized.iterative_improvement ~seed:17);
  report "Simulated Annealing" (Randomized.simulated_annealing ~seed:18);
  report "FP" Fp.run

(* Extension G: estimation accuracy of the positional histograms. *)
let extension_estimation () =
  section "Extension: positional-histogram estimation accuracy";
  Printf.printf "%-14s | %12s | %12s | %8s\n" "query" "estimated" "actual"
    "ratio";
  List.iter
    (fun (q : Workload.query) ->
      let db =
        Database.of_document
          (Workload.generate
             ~size:(scaled (Workload.default_size q.Workload.dataset))
             q.Workload.dataset)
      in
      let pat = q.Workload.pattern in
      let provider = Database.provider db pat in
      let full = (1 lsl Sjos_pattern.Pattern.node_count pat) - 1 in
      let est = provider.Sjos_plan.Costing.cluster_card full in
      let actual =
        float_of_int
          (Array.length
             (Database.run db pat).Database.exec
               .Sjos_exec.Executor.tuples)
      in
      Printf.printf "%-14s | %12.0f | %12.0f | %8.2f\n" q.Workload.id est
        actual
        (if actual > 0. then est /. actual else nan))
    Workload.queries

(* Extension H: time-to-first-result — the FP motivation made measurable.
   A fully pipelined plan streams its first tuple almost immediately; the
   same pattern evaluated with a final sort (order-by on a node the FP
   plan does not naturally produce) must finish everything first. *)
let extension_time_to_first () =
  section "Extension: time to first result (pipelined vs blocking)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 40_000) Workload.Pers)
  in
  let idx = Database.index db in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let fp = Optimizer.optimize ~provider Optimizer.Fp pat in
  let fp_plan = fp.Optimizer.plan in
  let blocking_plan =
    (* force a top-level sort by a different node *)
    let by = if Sjos_plan.Plan.ordered_by fp_plan = 0 then 1 else 0 in
    Sjos_plan.Plan.sort fp_plan ~by
  in
  List.iter
    (fun (label, plan) ->
      let first, total = Sjos_exec.Stream_exec.time_to_first idx pat plan in
      Printf.printf "%-22s first=%8.2fms total=%8.2fms first/total=%5.1f%%\n"
        label (first *. 1000.) (total *. 1000.)
        (100. *. first /. Float.max total 1e-9))
    [ ("FP (pipelined)", fp_plan); ("FP + final sort", blocking_plan) ]

(* Extension I: cost-model calibration — fit the f_* factors to this host
   and report the prediction error before/after. *)
let extension_calibration () =
  section "Extension: cost-model calibration on this host";
  let observations =
    List.concat_map
      (fun (q : Workload.query) ->
        let db =
          Database.of_document
            (Workload.generate
               ~size:(scaled (Workload.default_size q.Workload.dataset) / 2)
               q.Workload.dataset)
        in
        List.filter_map
          (fun algo ->
            match
              Experiment.run_cell ~opts:(Experiment.cold_opts algo) db
                q.Workload.pattern
            with
            | cell when cell.Experiment.matches >= 0 ->
                let run =
                  Database.run
                    ~opts:(Query_opts.make ~algorithm:algo ())
                    db q.Workload.pattern
                in
                Some
                  ( run.Database.exec.Sjos_exec.Executor.work,
                    run.Database.exec.Sjos_exec.Executor.seconds )
            | _ | (exception _) -> None)
          [ Optimizer.Dpp; Optimizer.Fp; Optimizer.Dpap_ld ])
      Workload.queries
  in
  let fitted = Sjos_exec.Calibrate.fit observations in
  let seconds_error f = Sjos_exec.Calibrate.mean_relative_error f observations in
  Printf.printf "observations: %d plan executions\n" (List.length observations);
  Printf.printf "fitted factors: %s\n"
    (Fmt.str "%a" Sjos_cost.Cost_model.pp_factors fitted);
  Printf.printf "mean relative error predicting seconds: %.1f%%\n"
    (100. *. seconds_error fitted)

(* ------------------------------------------------------------------ *)
(* Plan-cache effectiveness: repeated queries should pay (almost) no
   plan-selection cost.  Cold = fresh search after an epoch bump; warm =
   fingerprint lookup in the LRU cache.                                 *)

let bench_cache () =
  section "Plan cache: cold vs warm plan selection (Mbench workload)";
  let db =
    Database.of_document
      (Workload.generate
         ~size:(scaled (Workload.default_size Workload.Mbench))
         Workload.Mbench)
  in
  let best_of n f =
    let rec go k acc = if k = 0 then acc else go (k - 1) (Float.min acc (f ())) in
    go (n - 1) (f ())
  in
  Printf.printf "%-14s | %-10s | %12s | %12s | %9s\n" "query" "algorithm"
    "cold opt(ms)" "warm opt(ms)" "speedup";
  let rows = ref [] in
  let dpp_speedups = ref [] in
  let tuples_identical = ref true in
  let queries =
    List.filter
      (fun (q : Workload.query) -> q.Workload.dataset = Workload.Mbench)
      Workload.queries
  in
  List.iter
    (fun (q : Workload.query) ->
      let pat = q.Workload.pattern in
      List.iter
        (fun algo ->
          let opts = Query_opts.make ~algorithm:algo () in
          let cold_t =
            best_of 5 (fun () ->
                Database.invalidate_plans db;
                let p = Database.prepare ~opts db pat in
                (Database.prepared_result p).Optimizer.opt_seconds)
          in
          let cold_run = Database.run ~opts:(Query_opts.cold opts) db pat in
          (* seed the cache once, then time pure lookups *)
          Database.invalidate_plans db;
          ignore (Database.run ~opts db pat);
          let warm_t =
            best_of 5 (fun () ->
                let p = Database.prepare ~opts db pat in
                if not (Database.prepared_from_cache p) then
                  Printf.printf "!! %s/%s: warm prepare missed the cache\n"
                    q.Workload.id (Optimizer.name algo);
                (Database.prepared_result p).Optimizer.opt_seconds)
          in
          let warm_run = Database.run ~opts db pat in
          if
            cold_run.Database.exec.Sjos_exec.Executor.tuples
            <> warm_run.Database.exec.Sjos_exec.Executor.tuples
          then begin
            tuples_identical := false;
            Printf.printf "!! %s/%s: cached plan changed the result\n"
              q.Workload.id (Optimizer.name algo)
          end;
          let speedup = cold_t /. Float.max warm_t 1e-9 in
          if algo = Optimizer.Dpp then
            dpp_speedups := speedup :: !dpp_speedups;
          Printf.printf "%-14s | %-10s | %12.3f | %12.4f | %8.0fx\n"
            q.Workload.id (Optimizer.name algo) (cold_t *. 1000.)
            (warm_t *. 1000.) speedup;
          rows :=
            Sjos_obs.Json.Obj
              [
                ("query", Sjos_obs.Json.Str q.Workload.id);
                ("algorithm", Sjos_obs.Json.Str (Optimizer.name algo));
                ("cold_opt_seconds", Sjos_obs.Json.Float cold_t);
                ("warm_opt_seconds", Sjos_obs.Json.Float warm_t);
                ("speedup", Sjos_obs.Json.Float speedup);
              ]
            :: !rows)
        (Optimizer.all pat))
    queries;
  let payload =
    Sjos_obs.Json.Obj
      [
        ("cells", Sjos_obs.Json.List (List.rev !rows));
        ( "plan_cache",
          Sjos_cache.Plan_cache.to_json (Database.plan_cache db) );
      ]
  in
  let bench_json = "BENCH_CACHE.json" in
  Sjos_obs.Report.write_file bench_json payload;
  Printf.printf "wrote %s (%d cells)\n" bench_json (List.length !rows);
  let dpp_ok = List.for_all (fun s -> s >= 10.) !dpp_speedups in
  Printf.printf
    "advisory check: warm DPP plan selection >= 10x faster than cold, cached \
     tuples identical: %s\n"
    (if dpp_ok && !tuples_identical then "PASS" else "FAIL");
  ("cache_ran", !rows <> [])

(* ------------------------------------------------------------------ *)
(* Resource governance: what does degrading an over-budget exact search
   to DPAP-EB cost in plan quality, and does the engine keep its
   ok-or-structured-error contract under seeded fault injection?        *)

let bench_guard () =
  section "Guard: budgeted degradation and seeded chaos sweep";
  let open Sjos_guard in
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let sorted_tuples (run : Database.query_run) =
    List.sort compare
      (List.map Array.to_list
         (Array.to_list run.Database.exec.Sjos_exec.Executor.tuples))
  in
  (* 1. Baseline exact search vs budget-forced DPAP-EB degradation. *)
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let baseline = Database.run ~opts:(Query_opts.cold Query_opts.default) db pat in
  let degraded =
    match
      Database.run_r
        ~opts:
          (Query_opts.make ~use_cache:false
             ~budget:(Budget.make ~max_expanded:1 ())
             ())
        db pat
    with
    | Ok r -> r
    | Result.Error e -> failwith ("degraded run failed: " ^ Error.message e)
  in
  let cell label (run : Database.query_run) =
    Printf.printf "%-22s opt=%8.3fms plans=%5d eval=%10.1fkU matches=%d%s\n"
      label
      (run.Database.opt.Optimizer.opt_seconds *. 1000.)
      run.Database.opt.Optimizer.plans_considered
      (run.Database.exec.Sjos_exec.Executor.cost_units /. 1000.)
      (Array.length run.Database.exec.Sjos_exec.Executor.tuples)
      (match run.Database.opt.Optimizer.degraded_from with
      | Some a -> Printf.sprintf " (degraded from %s)" (Optimizer.name a)
      | None -> "");
    Sjos_obs.Json.Obj
      [
        ("label", Sjos_obs.Json.Str label);
        ("opt_seconds", Sjos_obs.Json.Float run.Database.opt.Optimizer.opt_seconds);
        ( "plans_considered",
          Sjos_obs.Json.Int run.Database.opt.Optimizer.plans_considered );
        ( "eval_units",
          Sjos_obs.Json.Float run.Database.exec.Sjos_exec.Executor.cost_units );
        ( "matches",
          Sjos_obs.Json.Int
            (Array.length run.Database.exec.Sjos_exec.Executor.tuples) );
        ( "degraded_from",
          match run.Database.opt.Optimizer.degraded_from with
          | Some a -> Sjos_obs.Json.Str (Optimizer.name a)
          | None -> Sjos_obs.Json.Null );
      ]
  in
  let base_cell = cell "DPP (unbudgeted)" baseline in
  let degr_cell = cell "DPP, max_expanded=1" degraded in
  let quality =
    degraded.Database.exec.Sjos_exec.Executor.cost_units
    /. Float.max baseline.Database.exec.Sjos_exec.Executor.cost_units 1e-9
  in
  let same_matches = sorted_tuples baseline = sorted_tuples degraded in
  Printf.printf "degraded plan cost ratio: %.2fx; matches identical: %b\n"
    quality same_matches;
  (* 2. Chaos sweep: every run is Ok or a structured Error — nothing
     escapes as a raw exception.  Lies-only runs must also preserve the
     result set. *)
  let patterns =
    List.map Sjos_pattern.Parse.pattern
      [
        "manager(//name)";
        "manager(//employee(/name))";
        "manager(//employee,//department)";
        "manager(//employee(/name),//department(/name))";
      ]
  in
  let seeds = List.init (if fast then 10 else 25) (fun i -> 1000 + i) in
  let ok = ref 0 and structured = ref 0 and escaped = ref 0 in
  let lies_divergent = ref 0 in
  let error_classes = Hashtbl.create 8 in
  let sweep ~faults ~check_matches =
    List.iter
      (fun p ->
        let truth =
          lazy (sorted_tuples (Database.run ~opts:(Query_opts.cold Query_opts.default) db p))
        in
        List.iter
          (fun seed ->
            let opts =
              Query_opts.make ~use_cache:false
                ~chaos:(Chaos.create ~faults ~seed ())
                ()
            in
            match Database.run_r ~opts db p with
            | Ok run ->
                incr ok;
                if check_matches && sorted_tuples run <> Lazy.force truth then
                  incr lies_divergent
            | Result.Error e ->
                incr structured;
                let c = Error.class_name e in
                Hashtbl.replace error_classes c
                  (1 + Option.value ~default:0 (Hashtbl.find_opt error_classes c))
            | exception _ -> incr escaped)
          seeds)
      patterns
  in
  sweep
    ~faults:
      Chaos.[ Truncate_candidates; Unsort_candidates; Lie_cardinalities ]
    ~check_matches:false;
  sweep ~faults:[ Chaos.Lie_cardinalities ] ~check_matches:true;
  let total = !ok + !structured + !escaped in
  Printf.printf
    "chaos sweep: %d runs, %d ok, %d structured errors, %d escaped \
     exceptions, %d lies-only divergences\n"
    total !ok !structured !escaped !lies_divergent;
  Hashtbl.iter
    (fun c n -> Printf.printf "  error class %-16s %d\n" c n)
    error_classes;
  let payload =
    Sjos_obs.Json.Obj
      [
        ("baseline", base_cell);
        ("degraded", degr_cell);
        ("degraded_cost_ratio", Sjos_obs.Json.Float quality);
        ("degraded_matches_identical", Sjos_obs.Json.Bool same_matches);
        ( "chaos",
          Sjos_obs.Json.Obj
            [
              ("runs", Sjos_obs.Json.Int total);
              ("ok", Sjos_obs.Json.Int !ok);
              ("structured_errors", Sjos_obs.Json.Int !structured);
              ("escaped_exceptions", Sjos_obs.Json.Int !escaped);
              ("lies_only_divergences", Sjos_obs.Json.Int !lies_divergent);
              ( "error_classes",
                Sjos_obs.Json.Obj
                  (Hashtbl.fold
                     (fun c n acc -> (c, Sjos_obs.Json.Int n) :: acc)
                     error_classes []) );
            ] );
      ]
  in
  let bench_json = "BENCH_GUARD.json" in
  Sjos_obs.Report.write_file bench_json payload;
  Printf.printf "wrote %s\n" bench_json;
  [
    ("degraded_matches_identical", same_matches);
    ("chaos_ran", total > 0);
    ("chaos_escaped_zero", !escaped = 0);
    ("lies_only_divergences_zero", !lies_divergent = 0);
  ]

let run () =
  Printf.printf "sjos benchmark harness (scale=%.2f%s)\n" scale
    (if fast then ", fast mode" else "");
  let table1_gate = table1 () in
  table2 ();
  table3 ();
  figures ();
  ablation_priority ();
  ablation_scaling ();
  ablation_holistic ();
  ablation_mpmgjn ();
  ablation_buffer_pool ();
  ablation_randomized ();
  extension_estimation ();
  extension_time_to_first ();
  extension_calibration ();
  let cache_gate = bench_cache () in
  let guard_gates = bench_guard () in
  if not fast then micro ();
  print_newline ();
  Harness.report (table1_gate :: cache_gate :: guard_gates)
