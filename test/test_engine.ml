open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_engine

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_database_basics () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  check ci "doc size" 17 (Sjos_xml.Document.size (Database.document db));
  let s = Database.stats db in
  check ci "stats nodes" 17 s.Sjos_storage.Stats.node_count;
  check cb "factors default" true
    (Database.factors db = Sjos_cost.Cost_model.default)

let test_database_run_query () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  let p = Helpers.pat "manager(//employee(/name))" in
  let run = Database.run db p in
  check ci "matches" 4 (Array.length run.Database.exec.Executor.tuples);
  let naive = Naive.count (Database.index db) p in
  check ci "naive agrees" naive (Array.length run.Database.exec.Executor.tuples);
  check cb "plan valid" true
    (Sjos_plan.Properties.is_valid p run.Database.opt.Optimizer.plan)

let test_database_all_algorithms () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let expected = Naive.count (Database.index db) p in
  List.iter
    (fun algo ->
      let run = Database.run ~opts:(Query_opts.make ~algorithm:algo ()) db p in
      check ci
        ("count with " ^ Optimizer.name algo)
        expected
        (Array.length run.Database.exec.Executor.tuples))
    (Optimizer.all p)

let test_database_explain () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  let p = Helpers.pat "manager(//employee)" in
  let s = Database.explain_prepared (Database.prepare db p) in
  check cb "mentions scan" true (Helpers.contains s "IdxScan");
  check cb "mentions cost" true (Helpers.contains s "cost~")

let test_database_load_file () =
  let path = Filename.temp_file "sjos" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc Helpers.tiny_pers_xml;
      close_out oc;
      let db = Database.load_file path in
      check ci "loaded" 17 (Sjos_xml.Document.size (Database.document db)))

let test_workload_queries () =
  check ci "eight queries" 8 (List.length Workload.queries);
  List.iter
    (fun (q : Workload.query) ->
      let n = Pattern.node_count q.Workload.pattern in
      let expected =
        match q.Workload.shape with
        | 'a' -> 3
        | 'b' -> 4
        | 'c' -> 5
        | 'd' -> 6
        | _ -> -1
      in
      check ci (q.Workload.id ^ " node count") expected n)
    Workload.queries;
  check cb "find works" true (Workload.find "Q.Pers.3.d" == Workload.q_pers_3_d);
  (match Workload.find "Q.Nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown id must raise");
  List.iter
    (fun ds ->
      check cb "dataset name nonempty" true
        (String.length (Workload.dataset_name ds) > 0);
      check cb "default size sane" true (Workload.default_size ds >= 1000))
    Workload.all_datasets

let test_workload_queries_have_matches () =
  (* every benchmark query must select something on its data set,
     otherwise the experiment is vacuous *)
  List.iter
    (fun (q : Workload.query) ->
      let doc = Workload.generate ~size:3000 q.Workload.dataset in
      let db = Database.of_document doc in
      let run = Database.run db q.Workload.pattern in
      check cb
        (q.Workload.id ^ " has matches")
        true
        (Array.length run.Database.exec.Executor.tuples > 0))
    Workload.queries

let test_experiment_cells () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name))" in
  let cell = Experiment.run_cell ~opts:(Experiment.cold_opts Optimizer.Dpp) db p in
  check cb "opt time" true (cell.Experiment.opt_seconds >= 0.0);
  check cb "eval units" true (cell.Experiment.eval_units > 0.0);
  check cb "matches" true (cell.Experiment.matches > 0);
  let bad = Experiment.bad_plan_cell ~samples:5 db p in
  check cb "bad plan worse or equal" true
    (bad.Experiment.eval_units >= cell.Experiment.eval_units)

let test_experiment_bad_plan_limit () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let bad = Experiment.bad_plan_cell ~samples:5 ~max_tuples:10 db p in
  check ci "not executed" (-1) bad.Experiment.matches;
  check cb "estimate reported" true (bad.Experiment.eval_units > 0.0)

let test_experiment_table2 () =
  let rows = Experiment.table2 ~size:1500 () in
  check ci "six algorithms" 6 (List.length rows);
  let get name =
    (List.find (fun r -> r.Experiment.algo_name = name) rows).Experiment.considered
  in
  check cb "DP most plans" true (get "DP" >= get "DPP'");
  check cb "DPP' > DPP" true (get "DPP'" > get "DPP");
  check cb "DPP > FP" true (get "DPP" > get "FP");
  List.iter
    (fun r -> check cb "positive counts" true (r.Experiment.considered > 0))
    rows

(* The paper's Table 2 counts at the default Pers 5,000, exactly — the
   constant every bench suite gates on. *)
let test_experiment_table2_pinned () =
  let rows = Experiment.table2 () in
  check
    Alcotest.(list (pair string int))
    "520/226/163/69/42/18" Experiment.table2_pinned
    (List.map (fun r -> (r.Experiment.algo_name, r.Experiment.considered)) rows)

let test_experiment_table3_scaling () =
  let rows =
    Experiment.table3 ~base_size:400 ~folds:[ 1; 3 ] ~max_tuples:5_000_000 ()
  in
  check ci "six rows (5 algos + bad)" 6 (List.length rows);
  List.iter
    (fun r ->
      match r.Experiment.per_fold with
      | [ (1, u1, _); (3, u3, _) ] ->
          check cb
            (Printf.sprintf "%s grows with folding (%.0f -> %.0f)"
               r.Experiment.label u1 u3)
            true (u3 > u1)
      | _ -> Alcotest.fail "expected folds 1 and 3")
    rows

let test_experiment_figure_te () =
  let points = Experiment.figure_te ~base_size:400 ~fold:1 () in
  (* 6 Te settings + 4 reference algorithms *)
  check ci "point count" 10 (List.length points);
  List.iter
    (fun p ->
      check cb "components nonnegative" true
        (p.Experiment.opt_units_s >= 0.0 && p.Experiment.eval_units_s >= 0.0))
    points

let test_order_by_end_to_end () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let doc = Database.document db in
  List.iter
    (fun algo ->
      List.iter
        (fun node ->
          let p =
            Pattern.with_order_by
              (Helpers.pat "manager(//employee(/name))")
              (Some node)
          in
          let opts = Query_opts.make ~algorithm:algo () in
          let run = Database.run ~opts db p in
          let tuples = run.Database.exec.Executor.tuples in
          check ci "count stable" (Naive.count (Database.index db) p)
            (Array.length tuples);
          let sorted = ref true in
          Array.iteri
            (fun i t ->
              if
                i > 0
                && Tuple.compare_by_slot doc node tuples.(i - 1) t > 0
              then sorted := false)
            tuples;
          check cb
            (Printf.sprintf "%s sorted by %s" (Optimizer.name algo)
               (Pattern.name p node))
            true !sorted)
        [ 0; 1; 2 ])
    [ Optimizer.Dp; Optimizer.Dpp; Optimizer.Fp ]

let test_mbench_attribute_query () =
  let db = Database.of_document (Lazy.force Helpers.mbench_1k) in
  let p, _ =
    Sjos_pattern.Xpath.compile "//eNest[@aLevel='3']//eNest[@aLevel='6']"
  in
  let run = Database.run db p in
  check ci "agrees with naive" (Naive.count (Database.index db) p)
    (Array.length run.Database.exec.Executor.tuples)

let suite =
  [
    ("database basics", `Quick, test_database_basics);
    ("database run_query", `Quick, test_database_run_query);
    ("database all algorithms agree", `Quick, test_database_all_algorithms);
    ("database explain", `Quick, test_database_explain);
    ("database load_file", `Quick, test_database_load_file);
    ("workload queries", `Quick, test_workload_queries);
    ("workload queries have matches", `Slow, test_workload_queries_have_matches);
    ("experiment cells", `Quick, test_experiment_cells);
    ("experiment bad-plan limit", `Quick, test_experiment_bad_plan_limit);
    ("experiment table2", `Quick, test_experiment_table2);
    ("experiment table2 pinned counts", `Quick, test_experiment_table2_pinned);
    ("experiment table3 scaling", `Slow, test_experiment_table3_scaling);
    ("experiment figure te", `Slow, test_experiment_figure_te);
    ("order-by end to end", `Quick, test_order_by_end_to_end);
    ("mbench attribute query", `Quick, test_mbench_attribute_query);
  ]
