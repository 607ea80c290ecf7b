open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_exec
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---------- Tuple ---------- *)

let test_tuple () =
  let doc = Lazy.force Helpers.tiny_pers in
  let t = Tuple.create 3 in
  check cb "unbound" false (Tuple.is_bound t 0);
  let s = Tuple.singleton ~width:3 1 (Document.node doc 5) in
  check ci "bound id" 5 (Tuple.get s 1);
  check ci "mask" 0b010 (Tuple.bound_mask s);
  let s2 = Tuple.singleton ~width:3 0 (Document.node doc 1) in
  let m = Tuple.merge s s2 in
  check ci "merged mask" 0b011 (Tuple.bound_mask m);
  check cb "to_string" true (Helpers.contains (Tuple.to_string m) "5");
  (match Tuple.merge s s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping merge should fail");
  (match Tuple.merge s (Tuple.create 4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch should fail")

(* ---------- Stack-Tree joins (node level) ---------- *)

(* doc:  <a><a><b/></a><b/><c><b/></c></a>
   ids:   0  1  2       3   4  5
   a-ids: 0,1 ; b-ids: 2,3,5 ; c-id: 4 *)
let st_doc = lazy (Parser.parse_string "<a><a><b/></a><b/><c><b/></c></a>")

let scan_tuples _doc idx tag slot width =
  Operators.index_scan ~width ~slot (Element_index.lookup idx tag)

let run_join algo axis =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  Work.measure (fun () ->
      let anc = scan_tuples doc idx "a" 0 2 in
      let desc = scan_tuples doc idx "b" 1 2 in
      Stack_tree.join ~doc ~axis ~algo ~anc:(anc, 0) ~desc:(desc, 1) ())

let pairs_of out = Array.to_list out |> List.map (fun t -> (Tuple.get t 0, Tuple.get t 1))

let test_stj_desc_descendant () =
  let out, work = run_join Plan.Stack_tree_desc Axes.Descendant in
  (* expected (a,b) with a ancestor of b: (0,2),(1,2),(0,3),(0,5) *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pairs ordered by descendant"
    [ (0, 2); (1, 2); (0, 3); (0, 5) ]
    (pairs_of out);
  check ci "output tuples" 4 work.Work.tuples_emitted;
  check ci "no buffered io" 0 work.Work.io_items;
  check ci "stack ops 2|A|" 4 work.Work.stack_ops

let test_stj_anc_descendant () =
  let out, work = run_join Plan.Stack_tree_anc Axes.Descendant in
  (* ordered by ancestor: a=0 pairs first (in b order), then a=1 *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pairs ordered by ancestor"
    [ (0, 2); (0, 3); (0, 5); (1, 2) ]
    (pairs_of out);
  check ci "buffered io 2|AB|" 8 work.Work.io_items

let test_stj_child_axis () =
  let out, _ = run_join Plan.Stack_tree_desc Axes.Child in
  (* only direct children: (1,2),(0,3) *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "child pairs" [ (1, 2); (0, 3) ] (pairs_of out)

let test_stj_empty_inputs () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let a = scan_tuples doc idx "a" 0 2 in
  let none = scan_tuples doc idx "zz" 1 2 in
  let out =
    Stack_tree.join ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(a, 0) ~desc:(none, 1) ()
  in
  check ci "empty desc" 0 (Array.length out);
  let none_anc = scan_tuples doc idx "zz" 0 2 in
  let b = scan_tuples doc idx "b" 1 2 in
  let out2 =
    Stack_tree.join ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_anc ~anc:(none_anc, 0) ~desc:(b, 1) ()
  in
  check ci "empty anc" 0 (Array.length out2)

let test_stj_unsorted_rejected () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let a = scan_tuples doc idx "a" 0 2 in
  let reversed = Array.of_list (List.rev (Array.to_list a)) in
  match
    Stack_tree.join ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(reversed, 0) ~desc:(a, 1) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted input should be rejected"

(* Join where one input is an intermediate result with duplicate join-node
   values: (a,b) pairs joined with c on a//c. *)
let test_stj_duplicate_join_values () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let width = 3 in
  let a = Operators.index_scan ~width ~slot:0 (Element_index.lookup idx "a") in
  let b = Operators.index_scan ~width ~slot:1 (Element_index.lookup idx "b") in
  let ab =
    Stack_tree.join ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_anc ~anc:(a, 0) ~desc:(b, 1) ()
  in
  (* ab ordered by a (slot 0), with a=0 appearing three times *)
  let c = Operators.index_scan ~width ~slot:2 (Element_index.lookup idx "c") in
  let abc =
    Stack_tree.join ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(ab, 0) ~desc:(c, 2) ()
  in
  (* c=4 is a descendant of a=0 only; expect one tuple per (0,b) pair *)
  let triples =
    Array.to_list abc
    |> List.map (fun t -> (Tuple.get t 0, Tuple.get t 1, Tuple.get t 2))
    |> List.sort compare
  in
  check
    (Alcotest.list (Alcotest.triple ci ci ci))
    "triples" [ (0, 2, 4); (0, 3, 4); (0, 5, 4) ] triples

(* ---------- Sort operator ---------- *)

let test_sort_operator () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let out, _ = run_join Plan.Stack_tree_desc Axes.Descendant in
  ignore idx;
  let sorted, work = Work.measure (fun () -> Operators.sort ~doc ~by:0 out) in
  let firsts = Array.to_list sorted |> List.map (fun t -> Tuple.get t 0) in
  check (Alcotest.list ci) "sorted by slot 0" [ 0; 0; 0; 1 ]
    (List.sort compare firsts);
  (* verify actual order, not just multiset *)
  check (Alcotest.list ci) "order" [ 0; 0; 0; 1 ] firsts;
  check ci "sorted items" 4 work.Work.sorted_items;
  check cb "sort cost recorded" true (work.Work.sort_cost > 0.0)

(* ---------- Executor vs naive oracle ---------- *)

let patterns_for_oracle =
  [
    "manager(//employee(/name))";
    "manager(//employee,//department)";
    "manager(//employee(/name),//manager(/department(/name)))";
    "company(//manager(/name))";
    "manager(//manager)";
    "*(//name)";
    "manager(//name[.='dan'])";
  ]

let test_executor_matches_naive () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Helpers.exact_provider idx p in
      let r = Sjos_core.Optimizer.optimize ~provider Sjos_core.Optimizer.Dpp p in
      let run = Executor.execute idx p r.Sjos_core.Optimizer.plan in
      let expected = Naive.matches idx p in
      Helpers.check_same_matches s expected (Array.to_list run.Executor.tuples))
    patterns_for_oracle

let test_executor_all_algorithms_agree () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let provider = Helpers.exact_provider idx p in
  let counts =
    List.map
      (fun algo ->
        let r = Sjos_core.Optimizer.optimize ~provider algo p in
        Executor.count_matches idx p r.Sjos_core.Optimizer.plan)
      (Sjos_core.Optimizer.all p)
  in
  match counts with
  | first :: rest ->
      List.iter (fun c -> check ci "same count across algorithms" first c) rest
  | [] -> Alcotest.fail "no algorithms"

let test_executor_output_order () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let doc = Element_index.document idx in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Helpers.exact_provider idx p in
  List.iter
    (fun algo ->
      let r = Sjos_core.Optimizer.optimize ~provider algo p in
      let plan = r.Sjos_core.Optimizer.plan in
      let by = Plan.ordered_by plan in
      let run = Executor.execute idx p plan in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          if i > 0 then
            let prev = run.Executor.tuples.(i - 1) in
            if Tuple.compare_by_slot doc by prev t > 0 then ok := false)
        run.Executor.tuples;
      check cb
        (Printf.sprintf "%s output ordered by %s"
           (Sjos_core.Optimizer.name algo)
           (Pattern.name p by))
        true !ok)
    (Sjos_core.Optimizer.all p)

let test_executor_rejects_invalid () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  match Executor.execute idx p (Plan.scan 0) with
  | exception Sjos_guard.Error.Error (Sjos_guard.Error.Invalid_plan _) -> ()
  | _ -> Alcotest.fail "partial plan must be rejected"

let test_executor_limit () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//name)" in
  let provider = Helpers.exact_provider idx p in
  let r = Sjos_core.Optimizer.optimize ~provider Sjos_core.Optimizer.Dpp p in
  match Executor.execute ~max_tuples:3 idx p r.Sjos_core.Optimizer.plan with
  | exception
      Sjos_guard.Budget.Exhausted
        {
          resource = Sjos_guard.Budget.Tuples_materialized { limit; count };
          _;
        } ->
      check ci "limit preserved" 3 limit;
      check cb "partial count reported" true (count > 3)
  | _ -> Alcotest.fail "expected Budget.Exhausted (Tuples_materialized)"

let test_metrics_accounting () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee)" in
  let edge = List.hd (Pattern.edges p) in
  let plan =
    Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1) ~edge
      ~algo:Plan.Stack_tree_desc
  in
  let run, charged = Work.measure (fun () -> Executor.execute idx p plan) in
  check ci "index items = |A|+|B|" 6 run.Executor.work.Work.candidates_scanned;
  check cb "cost units positive" true (run.Executor.cost_units > 0.0);
  check cb "cost units priced from the run's work" true
    (run.Executor.cost_units
    = Executor.cost_units Sjos_cost.Cost_model.default run.Executor.work);
  (* the run's own work is exactly what it charged the calling domain *)
  Helpers.check_work "run work = domain delta" charged run.Executor.work;
  check cb "work pp" true
    (String.length (Fmt.str "%a" Work.pp run.Executor.work) > 0)

(* ---------- PathStack holistic join ---------- *)

let test_path_stack_matches_naive () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let out = Path_stack.run idx p in
      Helpers.check_same_matches ("pathstack " ^ s) (Naive.matches idx p)
        (Array.to_list out))
    [
      "manager(//employee(/name))";
      "manager(/name)";
      "company(//manager(//manager(/department)))";
      "manager(//manager)";
      "company(//manager(//employee(/name)))";
      "name";
    ]

let test_path_stack_ordered_by_leaf () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let doc = Element_index.document idx in
  let p = Helpers.pat "manager(//employee(/name))" in
  let out = Path_stack.run idx p in
  check cb "has results" true (Array.length out > 0);
  let ok = ref true in
  Array.iteri
    (fun i t ->
      if i > 0 && Tuple.compare_by_slot doc 2 out.(i - 1) t > 0 then ok := false)
    out;
  check cb "ordered by leaf" true !ok;
  check ci "counts agree" (Naive.count idx p) (Array.length out)

let test_path_stack_rejects_twigs () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee,//department)" in
  match Path_stack.count idx p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "twig must be rejected"

let test_path_stack_no_intermediate_blowup () =
  (* the whole point of holistic joins: intermediate results of a binary
     plan can exceed the final result; PathStack only ever materializes
     output *)
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "company(//manager(//name))" in
  let out, work = Work.measure (fun () -> Path_stack.run idx p) in
  check ci "output tuples metric = result size" (Array.length out)
    work.Work.tuples_emitted;
  check ci "no buffered io" 0 work.Work.io_items

(* ---------- TwigStack-style holistic twig join ---------- *)

let test_twig_join_matches_naive () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let out = Twig_join.run idx p in
      Helpers.check_same_matches ("twig " ^ s) (Naive.matches idx p)
        (Array.to_list out))
    ([ "manager(//employee,//department)";
       "manager(//employee(/name),//department(/name))";
       "manager(//employee(/name),//manager(/department(/name)))";
       "company(//manager(/name),//manager(//employee))";
       "manager(//manager(/department),//employee)";
     ]
    @ patterns_for_oracle)

let test_twig_join_path_solutions () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let per_leaf = Twig_join.path_solutions idx p in
  check ci "two leaves" 2 (List.length per_leaf);
  (* leaf C=2 path A//B/C; leaf D=3 path A//D *)
  let c_solutions = List.assoc 2 per_leaf in
  let d_solutions = List.assoc 3 per_leaf in
  let path_abc = Helpers.pat "manager(//employee(/name))" in
  check ci "A//B/C path solutions" (Naive.count idx path_abc)
    (List.length c_solutions);
  let path_ad = Helpers.pat "manager(//department)" in
  check ci "A//D path solutions" (Naive.count idx path_ad)
    (List.length d_solutions);
  (* every path solution binds exactly its path's slots *)
  List.iter
    (fun t -> check ci "C-path slots" 0b0111 (Tuple.bound_mask t))
    c_solutions;
  List.iter
    (fun t -> check ci "D-path slots" 0b1001 (Tuple.bound_mask t))
    d_solutions

let test_twig_join_single_node () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager" in
  check ci "single node twig" 3 (Twig_join.count idx p)

let test_naive_cluster_count () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  check ci "full" 4 (Naive.cluster_count idx p 0b111);
  (* B//C cluster: employee/name pairs = 3 *)
  check ci "sub cluster" 3 (Naive.cluster_count idx p 0b110);
  check ci "single" 3 (Naive.cluster_count idx p 0b001)

let suite =
  [
    ("tuple operations", `Quick, test_tuple);
    ("STJ-Desc descendant axis", `Quick, test_stj_desc_descendant);
    ("STJ-Anc descendant axis", `Quick, test_stj_anc_descendant);
    ("STJ child axis", `Quick, test_stj_child_axis);
    ("STJ empty inputs", `Quick, test_stj_empty_inputs);
    ("STJ unsorted input rejected", `Quick, test_stj_unsorted_rejected);
    ("STJ duplicate join values", `Quick, test_stj_duplicate_join_values);
    ("sort operator", `Quick, test_sort_operator);
    ("executor matches naive oracle", `Quick, test_executor_matches_naive);
    ("all algorithms same result", `Quick, test_executor_all_algorithms_agree);
    ("executor output ordering", `Quick, test_executor_output_order);
    ("executor rejects invalid plans", `Quick, test_executor_rejects_invalid);
    ("executor tuple limit", `Quick, test_executor_limit);
    ("metrics accounting", `Quick, test_metrics_accounting);
    ("naive cluster counts", `Quick, test_naive_cluster_count);
    ("pathstack matches naive", `Quick, test_path_stack_matches_naive);
    ("pathstack leaf order", `Quick, test_path_stack_ordered_by_leaf);
    ("pathstack rejects twigs", `Quick, test_path_stack_rejects_twigs);
    ("pathstack materializes only output", `Quick,
      test_path_stack_no_intermediate_blowup);
    ("twig join matches naive", `Quick, test_twig_join_matches_naive);
    ("twig join path solutions", `Quick, test_twig_join_path_solutions);
    ("twig join single node", `Quick, test_twig_join_single_node);
  ]
