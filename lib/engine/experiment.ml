open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_datagen

type cell = {
  opt_seconds : float;
  plans_considered : int;
  eval_units : float;
  eval_seconds : float;
  matches : int;
  est_cost : float;
}

let run_cell ?(opts = Query_opts.default) db pat =
  let p = Database.prepare ~opts db pat in
  let opt = Database.prepared_result p in
  match Database.exec p with
  | run ->
      {
        opt_seconds = opt.Optimizer.opt_seconds;
        plans_considered = opt.Optimizer.plans_considered;
        eval_units = run.Database.exec.Executor.cost_units;
        eval_seconds = run.Database.exec.Executor.seconds;
        matches = Array.length run.Database.exec.Executor.tuples;
        est_cost = opt.Optimizer.est_cost;
      }
  | exception
      Sjos_guard.Budget.Exhausted
        { resource = Sjos_guard.Budget.Tuples_materialized _; _ } ->
      (* the chosen plan materializes too much to run safely (only heuristic
         algorithms ever get here); report the cost-model estimate, as the
         paper does for its ">4000 s" entries *)
      {
        opt_seconds = opt.Optimizer.opt_seconds;
        plans_considered = opt.Optimizer.plans_considered;
        eval_units = opt.Optimizer.est_cost;
        eval_seconds = nan;
        matches = -1;
        est_cost = opt.Optimizer.est_cost;
      }

(* The table harnesses measure search effort, so they always run cold:
   a cache hit would report zero plans considered. *)
let cold_opts ?max_tuples algorithm =
  Query_opts.make ~algorithm ?max_tuples ~use_cache:false ()

let bad_plan_cell ?(seed = 42) ?(samples = 20) ?max_tuples db pat =
  let provider = Database.provider db pat in
  let ctx = Search.make_ctx ~factors:(Database.factors db) ~provider pat in
  let t0 = Sjos_obs.Clock.now_ns () in
  let est_cost, plan = Random_plan.worst_of ~seed ctx samples in
  let opt_seconds = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
  let considered = ctx.Search.effort.Effort.considered in
  match Database.execute_plan ?max_tuples db pat plan with
  | exec ->
      {
        opt_seconds;
        plans_considered = considered;
        eval_units = exec.Executor.cost_units;
        eval_seconds = exec.Executor.seconds;
        matches = Array.length exec.Executor.tuples;
        est_cost;
      }
  | exception
      Sjos_guard.Budget.Exhausted
        { resource = Sjos_guard.Budget.Tuples_materialized _; _ } ->
      (* too expensive to run safely: report the cost-model estimate *)
      {
        opt_seconds;
        plans_considered = considered;
        eval_units = est_cost;
        eval_seconds = nan;
        matches = -1;
        est_cost;
      }

(* ------------------------------------------------------------------ *)

type table1_row = {
  query : Workload.query;
  cells : (Optimizer.algorithm * cell) list;
  bad : cell;
}

let database_cache :
    (Workload.dataset * int, Database.t) Hashtbl.t =
  Hashtbl.create 8

let database_for ?sizes ds =
  let size =
    match sizes with Some f -> f ds | None -> Workload.default_size ds
  in
  match Hashtbl.find_opt database_cache (ds, size) with
  | Some db -> db
  | None ->
      let db = Database.of_document (Workload.generate ~size ds) in
      Hashtbl.add database_cache (ds, size) db;
      db

(* The parallel workload driver: resolve (and cache) the databases on
   the calling domain — [database_cache] is a plain Hashtbl — then hand
   the fan-out to [Workload.run_all]. *)
let run_workload ?sizes ?opts ?pool () =
  let dbs =
    List.map (fun ds -> (ds, database_for ?sizes ds)) Workload.all_datasets
  in
  Workload.run_all ?opts ?pool (fun ds -> List.assoc ds dbs)

let table1 ?sizes ?max_tuples () =
  List.map
    (fun (query : Workload.query) ->
      let db = database_for ?sizes query.Workload.dataset in
      let pat = query.Workload.pattern in
      let cells =
        List.map
          (fun algo -> (algo, run_cell ~opts:(cold_opts ?max_tuples algo) db pat))
          (Optimizer.all pat)
      in
      let bad = bad_plan_cell ?max_tuples db pat in
      { query; cells; bad })
    Workload.queries

let cell_to_json (c : cell) =
  let open Sjos_obs.Json in
  Obj
    [
      ("est_cost_units", Float c.est_cost);
      ("actual_cost_units", Float c.eval_units);
      ("plans_considered", Int c.plans_considered);
      ("opt_seconds", Float c.opt_seconds);
      ("eval_seconds", Float c.eval_seconds);
      ("matches", Int c.matches);
    ]

let table1_to_json rows =
  let open Sjos_obs.Json in
  List
    (List.map
       (fun row ->
         Obj
           [
             ("query", Str row.query.Workload.id);
             ( "algorithms",
               Obj
                 (List.map
                    (fun (algo, c) -> (Optimizer.name algo, cell_to_json c))
                    row.cells) );
             ("bad_plan", cell_to_json row.bad);
           ])
       rows)

let print_table1 rows =
  let pr fmt = Printf.printf fmt in
  pr "%-14s" "Query";
  List.iter
    (fun (algo, _) ->
      let n =
        match algo with Optimizer.Dpap_eb _ -> "DPAP-EB" | a -> Optimizer.name a
      in
      pr "| %-17s" n)
    (match rows with r :: _ -> r.cells | [] -> []);
  pr "| %-17s\n" "Bad plan";
  pr "%-14s" "";
  List.iter (fun _ -> pr "| %-8s %-8s" "Opt(ms)" "Eval(kU)")
    (match rows with r :: _ -> r.cells | [] -> []);
  pr "| %-8s %-8s\n" "" "Eval(kU)";
  List.iter
    (fun row ->
      pr "%-14s" row.query.Workload.id;
      List.iter
        (fun (_, c) ->
          pr "| %8.2f %8.1f" (c.opt_seconds *. 1000.) (c.eval_units /. 1000.))
        row.cells;
      pr "| %8s %8.1f\n" "" (row.bad.eval_units /. 1000.))
    rows

(* ------------------------------------------------------------------ *)

type table2_row = { algo_name : string; opt_seconds : float; considered : int }

let table2 ?size ?(query = Workload.q_pers_3_d) () =
  let sizes =
    match size with Some s -> Some (fun _ -> s) | None -> None
  in
  let db = database_for ?sizes query.Workload.dataset in
  let pat = query.Workload.pattern in
  let te = Optimizer.default_te pat in
  let algos =
    [
      ("DP", Optimizer.Dp);
      ("DPP'", Optimizer.Dpp_no_lookahead);
      ("DPP", Optimizer.Dpp);
      ("DPAP-EB", Optimizer.Dpap_eb te);
      ("DPAP-LD", Optimizer.Dpap_ld);
      ("FP", Optimizer.Fp);
    ]
  in
  List.map
    (fun (algo_name, algo) ->
      (* a fresh search, never the plan cache: Table 2 counts search effort *)
      let r =
        Database.prepared_result
          (Database.prepare ~opts:(cold_opts algo) db pat)
      in
      {
        algo_name;
        opt_seconds = r.Optimizer.opt_seconds;
        considered = r.Optimizer.plans_considered;
      })
    algos

let table2_pinned =
  [
    ("DP", 520);
    ("DPP'", 226);
    ("DPP", 163);
    ("DPAP-EB", 69);
    ("DPAP-LD", 42);
    ("FP", 18);
  ]

let print_table2 rows =
  Printf.printf "%-12s" "";
  List.iter (fun r -> Printf.printf "| %9s " r.algo_name) rows;
  Printf.printf "\n%-12s" "OpTime(ms)";
  List.iter (fun r -> Printf.printf "| %9.3f " (r.opt_seconds *. 1000.)) rows;
  Printf.printf "\n%-12s" "# of Plans";
  List.iter (fun r -> Printf.printf "| %9d " r.considered) rows;
  print_newline ()

(* ------------------------------------------------------------------ *)

type table3_row = { label : string; per_fold : (int * float * float) list }

let table3 ?(base_size = 2_000) ?(folds = [ 1; 10; 100; 500 ])
    ?(query = Workload.q_pers_3_d) ?(max_tuples = 20_000_000) () =
  let base = Workload.generate ~size:base_size query.Workload.dataset in
  let pat = query.Workload.pattern in
  let dbs =
    List.map (fun f -> (f, Database.of_document (Folding.replicate base f))) folds
  in
  let te = Optimizer.default_te pat in
  let algos =
    [
      ("DP", Optimizer.Dp);
      ("DPP", Optimizer.Dpp);
      ("DPAP-EB", Optimizer.Dpap_eb te);
      ("DPAP-LD", Optimizer.Dpap_ld);
      ("FP", Optimizer.Fp);
    ]
  in
  let algo_rows =
    List.map
      (fun (label, algo) ->
        {
          label;
          per_fold =
            List.map
              (fun (f, db) ->
                let c = run_cell ~opts:(cold_opts ~max_tuples algo) db pat in
                (f, c.eval_units, c.eval_seconds))
              dbs;
        })
      algos
  in
  let bad_row =
    {
      label = "bad plan";
      per_fold =
        List.map
          (fun (f, db) ->
            let c = bad_plan_cell ~max_tuples db pat in
            (f, c.eval_units, c.eval_seconds))
          dbs;
    }
  in
  algo_rows @ [ bad_row ]

let print_table3 rows =
  (match rows with
  | [] -> ()
  | r :: _ ->
      Printf.printf "%-10s" "";
      List.iter (fun (f, _, _) -> Printf.printf "| x%-11d " f) r.per_fold;
      print_newline ());
  List.iter
    (fun r ->
      Printf.printf "%-10s" r.label;
      List.iter
        (fun (_, units, seconds) ->
          if Float.is_nan seconds then Printf.printf "| >%-9.0fkU*" (units /. 1000.)
          else Printf.printf "| %8.1fkU  " (units /. 1000.))
        r.per_fold;
      print_newline ())
    rows;
  Printf.printf "(* = not executed; cost-model estimate)\n"

(* ------------------------------------------------------------------ *)

type te_point = { setting : string; opt_units_s : float; eval_units_s : float }

let figure_te ?(base_size = 2_000) ?(fold = 1) ?(query = Workload.q_pers_3_d)
    () =
  let base = Workload.generate ~size:base_size query.Workload.dataset in
  let db = Database.of_document (Folding.replicate base fold) in
  let pat = query.Workload.pattern in
  let n = Pattern.node_count pat in
  let point setting algo =
    let c = run_cell ~opts:(cold_opts algo) db pat in
    { setting; opt_units_s = c.opt_seconds; eval_units_s = c.eval_seconds }
  in
  List.init n (fun i ->
      point (Printf.sprintf "DPAP-EB(%d)" (i + 1)) (Optimizer.Dpap_eb (i + 1)))
  @ [
      point "DPAP-LD" Optimizer.Dpap_ld;
      point "DPP" Optimizer.Dpp;
      point "DP" Optimizer.Dp;
      point "FP" Optimizer.Fp;
    ]

let print_figure ~title points =
  Printf.printf "%s\n" title;
  Printf.printf "%-14s %12s %12s %12s\n" "setting" "opt(ms)" "eval(ms)"
    "total(ms)";
  List.iter
    (fun p ->
      Printf.printf "%-14s %12.3f %12.3f %12.3f\n" p.setting
        (p.opt_units_s *. 1000.) (p.eval_units_s *. 1000.)
        ((p.opt_units_s +. p.eval_units_s) *. 1000.))
    points
