(* Tests for the extension modules: plan serialization, pattern
   minimization, randomized optimizers, cost calibration, attribute index,
   and the FLWOR front end. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_exec
open Sjos_engine

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

(* ---------- Plan_io ---------- *)

let test_plan_io_roundtrip () =
  let idx = Lazy.force Helpers.pers_1k_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Naive.exact_provider idx p in
      List.iter
        (fun algo ->
          let r = Optimizer.optimize ~provider algo p in
          let text = Plan_io.to_string p r.Optimizer.plan in
          match Plan_io.of_string p text with
          | Ok plan ->
              check cb ("roundtrip " ^ text) true (Plan.equal plan r.Optimizer.plan)
          | Error e -> Alcotest.fail (text ^ ": " ^ e))
        [ Optimizer.Dp; Optimizer.Fp; Optimizer.Dpap_ld ])
    [
      "manager(//employee(/name))";
      "manager(//employee(/name),//manager(/department(/name)))";
    ]

let test_plan_io_format () =
  let p = Helpers.pat "manager(//employee)" in
  let edge = List.hd (Pattern.edges p) in
  let plan =
    Plan.sort
      (Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1) ~edge
         ~algo:Plan.Stack_tree_desc)
      ~by:0
  in
  check cs "rendered" "(sort A (desc A B (scan A) (scan B)))"
    (Plan_io.to_string p plan)

let test_plan_io_errors () =
  let p = Helpers.pat "manager(//employee)" in
  List.iter
    (fun s -> check cb s true (Result.is_error (Plan_io.of_string p s)))
    [
      "";
      "(scan Z)";
      "(anc B A (scan B) (scan A))";
      "(scan A";
      "(bogus A)";
      "(scan A) extra";
    ]

(* ---------- Minimize ---------- *)

let test_label_subsumes () =
  let open Candidate in
  check cb "any subsumes tag" true (Minimize.label_subsumes any (of_tag "a"));
  check cb "tag subsumes same tag" true
    (Minimize.label_subsumes (of_tag "a") (of_tag "a"));
  check cb "tag vs other" false (Minimize.label_subsumes (of_tag "a") (of_tag "b"));
  check cb "attr more specific" true
    (Minimize.label_subsumes (of_tag "a")
       { (of_tag "a") with attr = Some ("k", "v") });
  check cb "not the other way" false
    (Minimize.label_subsumes
       { (of_tag "a") with attr = Some ("k", "v") }
       (of_tag "a"))

let minimize_nodes s =
  let p, _ = Minimize.minimize (Helpers.pat s) in
  Pattern.node_count p

let test_minimize_removes_duplicates () =
  check ci "a(//b,//b)" 2 (minimize_nodes "a(//b,//b)");
  check ci "a(//b(/c),//b)" 3 (minimize_nodes "a(//b(/c),//b)");
  check ci "a(/b,//b) drops the weaker" 2 (minimize_nodes "a(/b,//b)");
  check ci "a(//b,//c) stays" 3 (minimize_nodes "a(//b,//c)");
  check ci "a(/b,/b)" 2 (minimize_nodes "a(/b,/b)");
  (* the // branch embeds into the deeper chain *)
  check ci "a(//c,//b(//c))" 3 (minimize_nodes "a(//c,//b(//c))")

let test_minimize_keeps_kept_nodes () =
  let p = Helpers.pat "a(//b,//b)" in
  (* keeping node 2 (the second b) forces the redundant branch to be the
     first b *)
  let p', mapping = Minimize.minimize ~keep:[ 2 ] p in
  check ci "still two nodes" 2 (Pattern.node_count p');
  check cb "kept survives" true (mapping.(2) >= 0);
  (* keeping both prevents any removal *)
  let p'', _ = Minimize.minimize ~keep:[ 1; 2 ] p in
  check ci "no removal" 3 (Pattern.node_count p'')

let test_minimize_preserves_matches () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let p', mapping = Minimize.minimize ~keep:[ 0 ] p in
      (* bindings of the root must be identical *)
      let roots pat' =
        Naive.matches idx pat'
        |> List.map (fun t -> Tuple.get t 0)
        |> List.sort_uniq compare
      in
      check cb "root mapped to root" true (mapping.(0) = 0);
      check (Alcotest.list ci) ("root bindings " ^ s) (roots p) (roots p'))
    [
      "manager(//employee,//employee)";
      "manager(//name,//employee(/name))";
      "manager(//employee(/name),//employee)";
    ]

let test_minimize_order_by_kept () =
  let p = Helpers.pat "a(//b,//b) order by A" in
  let p', _ = Minimize.minimize p in
  check ci "minimized" 2 (Pattern.node_count p');
  check (Alcotest.option ci) "order-by remapped" (Some 0) (Pattern.order_by p')

(* ---------- Randomized optimizers ---------- *)

let test_randomized_valid_and_bounded () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//manager(/department(/name)))" in
  let provider = Naive.exact_provider idx p in
  let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
  let ii_cost, ii_plan =
    Randomized.iterative_improvement ~seed:3 (Search.make_ctx ~provider p)
  in
  check cb "II plan valid" true (Properties.is_valid p ii_plan);
  check cb "II >= optimal" true (ii_cost >= dp_cost -. 1e-6);
  let sa_cost, sa_plan =
    Randomized.simulated_annealing ~seed:4 (Search.make_ctx ~provider p)
  in
  check cb "SA plan valid" true (Properties.is_valid p sa_plan);
  check cb "SA >= optimal" true (sa_cost >= dp_cost -. 1e-6);
  (* both should land well below the worst random plan *)
  let worst, _ = Random_plan.worst_of ~seed:5 (Search.make_ctx ~provider p) 30 in
  check cb "II beats worst random" true (ii_cost < worst);
  check cb "SA beats worst random" true (sa_cost < worst)

let test_randomized_deterministic () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Naive.exact_provider idx p in
  let c1, _ = Randomized.iterative_improvement ~seed:7 (Search.make_ctx ~provider p) in
  let c2, _ = Randomized.iterative_improvement ~seed:7 (Search.make_ctx ~provider p) in
  Helpers.checkf "same seed same result" c1 c2

(* ---------- Calibrate ---------- *)

let synthetic_work (i, s, io, st) =
  {
    (Sjos_obs.Work.zero ()) with
    Sjos_obs.Work.candidates_scanned = i;
    sort_cost = s;
    io_items = io;
    stack_ops = st;
  }

let test_calibrate_recovers_factors () =
  let truth =
    Sjos_cost.Cost_model.make ~f_index:2.0 ~f_sort:0.5 ~f_io:7.0 ~f_stack:1.5 ()
  in
  let observations =
    List.map
      (fun spec ->
        let w = synthetic_work spec in
        (w, Executor.cost_units truth w))
      [
        (100, 5.0, 20, 300);
        (50, 80.0, 5, 10);
        (10, 1.0, 200, 50);
        (400, 20.0, 3, 900);
        (7, 300.0, 60, 2);
        (33, 0.0, 0, 44);
      ]
  in
  let fitted = Calibrate.fit observations in
  Helpers.checkf "f_index" 2.0 fitted.Sjos_cost.Cost_model.f_index;
  Helpers.checkf "f_sort" 0.5 fitted.Sjos_cost.Cost_model.f_sort;
  Helpers.checkf "f_io" 7.0 fitted.Sjos_cost.Cost_model.f_io;
  Helpers.checkf "f_stack" 1.5 fitted.Sjos_cost.Cost_model.f_stack;
  Helpers.checkf "zero residual" 0.0
    (Calibrate.mean_relative_error fitted observations)

let test_calibrate_degenerate () =
  (* one observation: singular system; fall back to scaled defaults *)
  let m = synthetic_work (100, 0.0, 0, 0) in
  let fitted = Calibrate.fit [ (m, 5.0) ] in
  Helpers.checkf "prediction matches total" 5.0 (Calibrate.predict fitted m);
  match Calibrate.fit [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty observations rejected"

let test_calibrate_on_real_runs () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let observations =
    List.concat_map
      (fun (q : Workload.query) ->
        if q.Workload.dataset = Workload.Pers then begin
          let run = Database.run db q.Workload.pattern in
          [ (run.Database.exec.Executor.work, run.Database.exec.Executor.seconds) ]
        end
        else [])
      Workload.queries
  in
  let fitted = Calibrate.fit observations in
  (* fitted factors are non-negative and prediction error is bounded *)
  check cb "non-negative" true
    (fitted.Sjos_cost.Cost_model.f_index >= 0.
    && fitted.Sjos_cost.Cost_model.f_sort >= 0.
    && fitted.Sjos_cost.Cost_model.f_io >= 0.
    && fitted.Sjos_cost.Cost_model.f_stack >= 0.)

(* ---------- Attribute index ---------- *)

let test_attribute_index () =
  let doc = Lazy.force Helpers.mbench_1k in
  let idx = Element_index.build doc in
  let via_index = Element_index.lookup_attr idx ~tag:"eNest" ~attr:"aLevel" ~value:"3" in
  let via_filter =
    Array.to_list (Element_index.lookup idx "eNest")
    |> List.filter (fun n -> Node.has_attr_value n "aLevel" "3")
  in
  check ci "same cardinality" (List.length via_filter) (Array.length via_index);
  check cb "same nodes" true (Array.to_list via_index = via_filter);
  check ci "missing value" 0
    (Array.length (Element_index.lookup_attr idx ~tag:"eNest" ~attr:"aLevel" ~value:"99"));
  check ci "missing attr" 0
    (Array.length (Element_index.lookup_attr idx ~tag:"eNest" ~attr:"nope" ~value:"1"));
  (* Candidate.select goes through the secondary index and agrees *)
  let spec = { (Candidate.of_tag "eNest") with Candidate.attr = Some ("aLevel", "3") } in
  check ci "candidate select agrees" (Array.length via_index)
    (Array.length (Candidate.select idx spec))

(* More distinct values than the index's one-byte slot codes: values
   past the 254th take the re-hashing path and must agree too. *)
let test_attribute_index_many_values () =
  let b = Buffer.create 16384 in
  Buffer.add_string b "<r>";
  for i = 0 to 899 do
    if i mod 7 = 0 then Buffer.add_string b "<e/>"
    else Printf.bprintf b "<e k=\"v%d\"/>" (i mod 300)
  done;
  Buffer.add_string b "</r>";
  let idx = Element_index.build (Sjos_xml.Parser.parse_string (Buffer.contents b)) in
  let total = ref 0 in
  for v = 0 to 299 do
    let value = Printf.sprintf "v%d" v in
    let via_index = Element_index.lookup_attr idx ~tag:"e" ~attr:"k" ~value in
    let via_filter =
      Array.to_list (Element_index.lookup idx "e")
      |> List.filter (fun n -> Node.has_attr_value n "k" value)
    in
    total := !total + Array.length via_index;
    check cb ("same nodes for " ^ value) true (Array.to_list via_index = via_filter)
  done;
  check ci "every attributed node indexed once" (900 - 129) !total

(* ---------- Xquery ---------- *)

let tiny_db = lazy (Database.of_string Helpers.tiny_pers_xml)

let test_xquery_basic () =
  let db = Lazy.force tiny_db in
  let doc =
    Xquery.run db
      "for $m in //manager for $e in $m//employee return <r>{$e/text()}</r>"
  in
  (* one <r> per (manager, employee) pair: (1,3),(1,9),(5,9),(13,15) *)
  check ci "results" 4
    (List.length (Document.children doc (Document.root doc)))

let test_xquery_where () =
  let db = Lazy.force tiny_db in
  let out =
    Xquery.run_string db
      "for $m in //manager for $e in $m//employee where $e/name = 'dan' \
       return <hit>{$m/name/text()}</hit>"
  in
  (* dan works under ann and under cid *)
  check cb "two hits" true
    (Helpers.contains out "<hit>ann</hit>" && Helpers.contains out "<hit>cid</hit>")

let test_xquery_existence_and_copy () =
  let db = Lazy.force tiny_db in
  let doc =
    Xquery.run db
      "for $m in //manager where $m/department return <boss>{$m/name}</boss>"
  in
  (* managers with a *child* department: ann and cid *)
  let results = Document.children doc (Document.root doc) in
  check ci "two bosses" 2 (List.length results);
  (* {$m/name} would copy a subtree — here name: one name child each *)
  List.iter
    (fun r ->
      check ci "copied subtree" 1 (List.length (Document.children doc r)))
    results

let test_xquery_errors () =
  let db = Lazy.force tiny_db in
  List.iter
    (fun q ->
      match Xquery.run db q with
      | exception Xquery.Error _ -> ()
      | exception Sjos_pattern.Parse.Syntax_error _ -> ()
      | _ -> Alcotest.fail ("expected failure: " ^ q))
    [
      "";
      "for $x in //a";
      "for $x in $y//a return <r></r>";
      "for $x in //a for $x in $x/b return <r></r>";
      "for $x in //a where $x return <r></r>";
      "for $x in //a return <r>{$zzz}</r>";
      "for $x in //a return <r>{$x/bogus()}</r>";
      "for $x in //a return <r></s>";
    ]

let test_xquery_optimized_consistently () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let q =
    "for $m in //manager for $d in $m//department for $n in $d/name \
     return <x></x>"
  in
  let count algorithm =
    let doc = Xquery.run ~opts:(Query_opts.make ~algorithm ()) db q in
    List.length (Document.children doc (Document.root doc))
  in
  let dp = count Optimizer.Dp in
  List.iter
    (fun a -> check ci "same result count" dp (count a))
    [ Optimizer.Dpp; Optimizer.Fp; Optimizer.Dpap_ld ]

(* ---------- Streaming executor ---------- *)

let test_stream_equals_executor () =
  let idx = Lazy.force Helpers.pers_1k_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Naive.exact_provider idx p in
      List.iter
        (fun algo ->
          let r = Optimizer.optimize ~provider algo p in
          let batch = Executor.execute idx p r.Optimizer.plan in
          let streamed = List.of_seq (Stream_exec.stream idx p r.Optimizer.plan) in
          check cb
            (Printf.sprintf "%s via %s" s (Optimizer.name algo))
            true
            (Array.to_list batch.Executor.tuples = streamed))
        [ Optimizer.Dpp; Optimizer.Fp; Optimizer.Dpap_ld ])
    [
      "manager(//employee(/name))";
      "manager(//employee(/name),//department(/name))";
      "manager(//employee(/name),//manager(/department(/name)))";
    ]

let test_stream_first_k () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Naive.exact_provider idx p in
  let r = Optimizer.optimize ~provider Optimizer.Fp p in
  let all = Executor.execute idx p r.Optimizer.plan in
  let k = min 5 (Array.length all.Executor.tuples) in
  let firsts = Stream_exec.first_k idx p r.Optimizer.plan k in
  check ci "k results" k (List.length firsts);
  List.iteri
    (fun i t -> check cb "prefix matches" true (t = all.Executor.tuples.(i)))
    firsts;
  check ci "zero results ok" 0 (List.length (Stream_exec.first_k idx p r.Optimizer.plan 0))

let test_stream_rejects_invalid () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee)" in
  match Stream_exec.stream idx p (Plan.scan 0) with
  | exception Invalid_argument _ -> ()
  | (_ : Tuple.t Seq.t) -> Alcotest.fail "invalid plan must be rejected"

let test_stream_time_to_first () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Naive.exact_provider idx p in
  let r = Optimizer.optimize ~provider Optimizer.Fp p in
  let first, total = Stream_exec.time_to_first idx p r.Optimizer.plan in
  check cb "timings nonnegative" true (first >= 0.0 && total >= 0.0)

let suite =
  [
    ("plan_io roundtrip", `Quick, test_plan_io_roundtrip);
    ("plan_io format", `Quick, test_plan_io_format);
    ("plan_io errors", `Quick, test_plan_io_errors);
    ("minimize label subsumption", `Quick, test_label_subsumes);
    ("minimize removes duplicates", `Quick, test_minimize_removes_duplicates);
    ("minimize keeps kept nodes", `Quick, test_minimize_keeps_kept_nodes);
    ("minimize preserves root bindings", `Quick, test_minimize_preserves_matches);
    ("minimize remaps order-by", `Quick, test_minimize_order_by_kept);
    ("randomized optimizers valid & bounded", `Quick, test_randomized_valid_and_bounded);
    ("randomized deterministic", `Quick, test_randomized_deterministic);
    ("calibrate recovers factors", `Quick, test_calibrate_recovers_factors);
    ("calibrate degenerate input", `Quick, test_calibrate_degenerate);
    ("calibrate on real runs", `Quick, test_calibrate_on_real_runs);
    ("attribute index", `Quick, test_attribute_index);
    ("attribute index, many values", `Quick, test_attribute_index_many_values);
    ("xquery basic", `Quick, test_xquery_basic);
    ("xquery where", `Quick, test_xquery_where);
    ("xquery existence and copy", `Quick, test_xquery_existence_and_copy);
    ("xquery errors", `Quick, test_xquery_errors);
    ("xquery all optimizers agree", `Quick, test_xquery_optimized_consistently);
    ("streaming = materializing executor", `Quick, test_stream_equals_executor);
    ("streaming first-k", `Quick, test_stream_first_k);
    ("streaming rejects invalid plans", `Quick, test_stream_rejects_invalid);
    ("streaming time-to-first", `Quick, test_stream_time_to_first);
  ]
