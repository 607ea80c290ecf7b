(* Property-based tests (qcheck) on the core invariants. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_exec
open Sjos_datagen

(* ---------- deterministic random structures from an integer seed ------- *)

let tags = [| "a"; "b"; "c"; "d" |]

(* A random document over a tiny tag alphabet: nested enough that
   containment joins are non-trivial. *)
let random_doc seed =
  let rng = Rng.create seed in
  let b = Builder.create () in
  let budget = ref (20 + Rng.int rng 60) in
  let rec node depth =
    decr budget;
    Builder.open_element b tags.(Rng.int rng (Array.length tags));
    let kids = if depth >= 6 then 0 else Rng.geometric rng ~p:0.55 ~max:4 in
    for _ = 1 to kids do
      if !budget > 0 then node (depth + 1)
    done;
    Builder.close_element b
  in
  node 0;
  Builder.finish b

(* A random pattern tree with 2-5 nodes over the same alphabet. *)
let random_pattern seed =
  let rng = Rng.create (seed * 31 + 17) in
  let n = 2 + Rng.int rng 4 in
  let labels =
    Array.init n (fun _ -> Candidate.of_tag tags.(Rng.int rng (Array.length tags)))
  in
  let edges =
    Array.init (n - 1) (fun i ->
        let child = i + 1 in
        let parent = Rng.int rng child in
        let axis = if Rng.bool rng then Axes.Child else Axes.Descendant in
        (parent, axis, child))
  in
  Pattern.create ~labels ~edges ()

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* ---------- properties ---------- *)

let prop_doc_valid =
  Helpers.qtest "random documents satisfy the interval encoding" seed_gen
    (fun seed ->
      match Document.validate (random_doc seed) with
      | Ok () -> true
      | Error _ -> false)

let prop_nest_or_disjoint =
  Helpers.qtest "any two nodes nest or are disjoint" seed_gen (fun seed ->
      let doc = random_doc seed in
      let nodes = Document.nodes doc in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              a.Node.id = b.Node.id
              || Axes.is_ancestor a b || Axes.is_ancestor b a
              || Axes.disjoint a b)
            nodes)
        nodes)

(* Every Node.t field survives serialize-then-parse, under both indent
   modes, for attribute-free random trees and for seeded Mbench, DBLP and
   Pers documents whose text holds &, <, > and double quotes beside
   spaces. *)
let prop_parse_serialize_id =
  Helpers.qtest "parse . serialize = id" seed_gen (fun seed ->
      List.for_all
        (fun doc ->
          List.for_all
            (fun indent ->
              let doc' = Parser.parse_string (Serializer.to_string ~indent doc) in
              Document.nodes doc = Document.nodes doc')
            [ false; true ])
        [ random_doc seed; Helpers.tricky_doc seed ])

let prop_executor_equals_naive =
  Helpers.qtest ~count:60 "optimized execution equals naive matching" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let r = Optimizer.optimize ~provider Optimizer.Dpp p in
      let run = Executor.execute idx p r.Optimizer.plan in
      Helpers.sorted_tuples (Array.to_list run.Executor.tuples)
      = Helpers.sorted_tuples (Naive.matches idx p))

let prop_fp_equals_naive =
  Helpers.qtest ~count:40 "FP plans compute the same matches" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let _, plan = Fp.run (Search.make_ctx ~provider p) in
      Properties.is_fully_pipelined plan
      && Properties.is_valid p plan
      && Helpers.sorted_tuples
           (Array.to_list (Executor.execute idx p plan).Executor.tuples)
         = Helpers.sorted_tuples (Naive.matches idx p))

let prop_dp_optimal_vs_random =
  Helpers.qtest ~count:40 "DP cost is a lower bound on random plans" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      List.for_all
        (fun (c, _) -> c >= dp_cost -. 1e-6)
        (Random_plan.sample ~seed (Search.make_ctx ~provider p) 10))

let prop_dpp_equals_dp =
  Helpers.qtest ~count:40 "DPP finds the DP optimum" seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      let dpp_cost, _ = Dpp.run (Search.make_ctx ~provider p) in
      Float.abs (dp_cost -. dpp_cost) < 1e-6)

let prop_estimator_bounds =
  Helpers.qtest ~count:60 "pair estimates lie within [0, |A|*|D|]" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let max_pos = Document.max_pos doc in
      let h tag =
        Sjos_histogram.Position_histogram.build ~grid:16 ~max_pos
          (Element_index.cols idx tag)
      in
      let ha = h "a" and hb = h "b" in
      let est = Sjos_histogram.Estimator.ancestor_descendant ~anc:ha ~desc:hb in
      let bound =
        Sjos_histogram.Position_histogram.cardinality ha
        *. Sjos_histogram.Position_histogram.cardinality hb
      in
      est >= 0.0 && est <= bound +. 1e-9)

let prop_stack_tree_equals_filter =
  Helpers.qtest ~count:60 "stack-tree join = filtered cross product" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let a = Operators.index_scan ~width:2 ~slot:0 (Element_index.lookup idx "a") in
      let b = Operators.index_scan ~width:2 ~slot:1 (Element_index.lookup idx "b") in
      let axis = if seed mod 2 = 0 then Axes.Descendant else Axes.Child in
      let algo = if seed mod 3 = 0 then Plan.Stack_tree_anc else Plan.Stack_tree_desc in
      let joined =
        Stack_tree.join ~doc ~axis ~algo ~anc:(a, 0) ~desc:(b, 1) ()
      in
      let expected =
        Array.to_list a
        |> List.concat_map (fun ta ->
               Array.to_list b
               |> List.filter_map (fun tb ->
                      let na = Document.node doc (Tuple.get ta 0) in
                      let nb = Document.node doc (Tuple.get tb 1) in
                      if Axes.related axis ~anc:na ~desc:nb then
                        Some (Tuple.merge ta tb)
                      else None))
      in
      Helpers.sorted_tuples (Array.to_list joined)
      = Helpers.sorted_tuples expected)

let prop_join_output_ordered =
  Helpers.qtest ~count:60 "join output is ordered as advertised" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let a = Operators.index_scan ~width:2 ~slot:0 (Element_index.lookup idx "a") in
      let b = Operators.index_scan ~width:2 ~slot:1 (Element_index.lookup idx "b") in
      let check_sorted algo slot =
        let out =
          Stack_tree.join ~doc ~axis:Axes.Descendant ~algo ~anc:(a, 0)
            ~desc:(b, 1) ()
        in
        let ok = ref true in
        Array.iteri
          (fun i t ->
            if i > 0 && Tuple.compare_by_slot doc slot out.(i - 1) t > 0 then
              ok := false)
          out;
        !ok
      in
      check_sorted Plan.Stack_tree_anc 0 && check_sorted Plan.Stack_tree_desc 1)

(* random *path* pattern: a chain over the alphabet *)
let random_path_pattern seed =
  let rng = Rng.create (seed * 73 + 5) in
  let n = 1 + Rng.int rng 4 in
  let labels =
    List.init n (fun _ -> Candidate.of_tag tags.(Rng.int rng (Array.length tags)))
  in
  let axes =
    List.init (max 0 (n - 1)) (fun _ ->
        if Rng.bool rng then Axes.Child else Axes.Descendant)
  in
  Shapes.path labels axes

let prop_path_stack_equals_naive =
  Helpers.qtest ~count:60 "PathStack equals naive matching on paths" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_path_pattern seed in
      let out = Path_stack.run idx p in
      Helpers.sorted_tuples (Array.to_list out)
      = Helpers.sorted_tuples (Naive.matches idx p))

let prop_twig_join_equals_naive =
  Helpers.qtest ~count:60 "TwigStack-style join equals naive matching"
    seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let out = Twig_join.run idx p in
      Helpers.sorted_tuples (Array.to_list out)
      = Helpers.sorted_tuples (Naive.matches idx p))

let prop_mpmgjn_equals_stack_tree =
  Helpers.qtest ~count:60 "MPMGJN = Stack-Tree join results" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let axis = if seed mod 2 = 0 then Axes.Descendant else Axes.Child in
      let scan slot tag =
        Operators.index_scan ~width:2 ~slot (Element_index.lookup idx tag)
      in
      let st =
        Stack_tree.join ~doc ~axis ~algo:Plan.Stack_tree_anc
          ~anc:(scan 0 "a", 0) ~desc:(scan 1 "b", 1) ()
      in
      let mj =
        Merge_join.join ~doc ~axis ~anc:(scan 0 "a", 0) ~desc:(scan 1 "b", 1)
      in
      Helpers.sorted_tuples (Array.to_list st)
      = Helpers.sorted_tuples (Array.to_list mj))

let prop_stream_equals_executor =
  Helpers.qtest ~count:50 "streaming executor = materializing executor"
    seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let r = Optimizer.optimize ~provider Optimizer.Dpp p in
      let batch = Executor.execute idx p r.Optimizer.plan in
      Array.to_list batch.Executor.tuples
      = List.of_seq (Stream_exec.stream idx p r.Optimizer.plan))

let prop_minimize_preserves_root_bindings =
  Helpers.qtest ~count:50 "minimization preserves root bindings" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let p', mapping = Minimize.minimize ~keep:[ 0 ] p in
      let roots pat' =
        Naive.matches idx pat'
        |> List.map (fun t -> Tuple.get t 0)
        |> List.sort_uniq compare
      in
      mapping.(0) = 0 && roots p = roots p')

let prop_folding_linear =
  Helpers.qtest ~count:15 "folding multiplies match counts" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let p = random_pattern seed in
      let base = Naive.count (Element_index.build doc) p in
      let folded = Folding.replicate doc 3 in
      Naive.count (Element_index.build folded) p = 3 * base)

let prop_pq_sorts =
  Helpers.qtest "priority queue pops in priority order"
    QCheck2.Gen.(list_size (int_range 0 50) (float_range (-1000.) 1000.))
    (fun floats ->
      let q = Pq.create () in
      List.iter (fun f -> Pq.push q f f) floats;
      let rec drain acc =
        match Pq.pop q with
        | Some (pr, _) -> drain (pr :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare floats)

let prop_random_plans_valid =
  Helpers.qtest ~count:40 "random plans are always valid" seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let ctx = Search.make_ctx ~provider p in
      List.for_all
        (fun (_, plan) -> Properties.is_valid p plan)
        (Random_plan.sample ~seed ctx 5))

let suite =
  [
    prop_doc_valid;
    prop_nest_or_disjoint;
    prop_parse_serialize_id;
    prop_executor_equals_naive;
    prop_fp_equals_naive;
    prop_dp_optimal_vs_random;
    prop_dpp_equals_dp;
    prop_estimator_bounds;
    prop_stack_tree_equals_filter;
    prop_join_output_ordered;
    prop_path_stack_equals_naive;
    prop_twig_join_equals_naive;
    prop_mpmgjn_equals_stack_tree;
    prop_stream_equals_executor;
    prop_minimize_preserves_root_bindings;
    prop_folding_linear;
    prop_pq_sorts;
    prop_random_plans_valid;
  ]
