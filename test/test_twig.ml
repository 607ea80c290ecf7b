(* Differential tests for the holistic twig engine: the columnar
   TwigStack kernel against the legacy Twig_join oracle, the binary
   Stack-Tree plans, and the naive matcher — on randomized documents and
   patterns (base seed via SJOS_TWIG_SEED), both storage backends, and
   under budget truncation and chaos fault injection (structured errors
   only). *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_engine
open Sjos_guard
open Sjos_datagen

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let seed_base =
  match Sys.getenv_opt "SJOS_TWIG_SEED" with
  | Some s -> ( try int_of_string s with _ -> 7)
  | None -> 7

(* ---------- deterministic random structures (independent of the
   test_properties streams, so the suites don't couple) ---------- *)

let tags = [| "a"; "b"; "c"; "d" |]

let random_doc seed =
  let rng = Rng.create (seed * 37 + 11) in
  let b = Builder.create () in
  let budget = ref (25 + Rng.int rng 80) in
  let rec node depth =
    decr budget;
    Builder.open_element b tags.(Rng.int rng (Array.length tags));
    let kids = if depth >= 7 then 0 else Rng.geometric rng ~p:0.5 ~max:4 in
    for _ = 1 to kids do
      if !budget > 0 then node (depth + 1)
    done;
    Builder.close_element b
  in
  node 0;
  Builder.finish b

let random_pattern seed =
  let rng = Rng.create (seed * 41 + 23) in
  let n = 2 + Rng.int rng 4 in
  let labels =
    Array.init n (fun _ ->
        Candidate.of_tag tags.(Rng.int rng (Array.length tags)))
  in
  let edges =
    Array.init (n - 1) (fun i ->
        let child = i + 1 in
        let parent = Rng.int rng child in
        let axis = if Rng.bool rng then Axes.Child else Axes.Descendant in
        (parent, axis, child))
  in
  Pattern.create ~labels ~edges ()

let tuple_lists run = List.map Array.to_list (Array.to_list run)
let matches_of (run : Database.query_run) =
  Array.to_list run.Database.exec.Executor.tuples

(* ---------- four-way differential on random inputs ---------- *)

let test_differential_random () =
  for i = 0 to 29 do
    let seed = seed_base + i in
    let doc = random_doc seed in
    let idx = Element_index.build doc in
    let p = random_pattern seed in
    let msg s = Printf.sprintf "seed %d %s: %s" seed (Pattern.to_string p) s in
    let naive = Naive.matches idx p in
    let hplan = Sjos_plan.Plan.holistic_of_pattern p in
    let col = Executor.execute idx p hplan in
    let leg = Executor.execute ~kernel:`Legacy idx p hplan in
    let opt =
      Optimizer.optimize ~provider:(Naive.exact_provider idx p) Optimizer.Dpp p
    in
    let bin = Executor.execute idx p opt.Optimizer.plan in
    Helpers.check_same_matches (msg "columnar twig = naive") naive
      (Array.to_list col.Executor.tuples);
    Helpers.check_same_matches (msg "legacy twig = naive") naive
      (Array.to_list leg.Executor.tuples);
    Helpers.check_same_matches (msg "binary = naive") naive
      (Array.to_list bin.Executor.tuples);
    (* the two holistic kernels agree on the canonical output order, not
       just the set *)
    check
      (Alcotest.list (Alcotest.list ci))
      (msg "canonical order parity")
      (tuple_lists col.Executor.tuples)
      (tuple_lists leg.Executor.tuples)
  done

(* The twig counters are deterministic: same query, same counters, every
   time — and path solutions are priced as buffered IO. *)
let test_columnar_work_deterministic () =
  let doc = random_doc (seed_base * 3) in
  let idx = Element_index.build doc in
  let p = random_pattern (seed_base * 3) in
  let hplan = Sjos_plan.Plan.holistic_of_pattern p in
  let once () =
    let w, r = Sjos_obs.Work.scoped (fun () -> Executor.execute idx p hplan) in
    match r with Ok run -> (w, run) | Error e -> raise e
  in
  let w1, r1 = once () in
  let w2, r2 = once () in
  check cb "work identical across runs" true (Sjos_obs.Work.equal w1 w2);
  check ci "tuples identical" (Array.length r1.Executor.tuples)
    (Array.length r2.Executor.tuples);
  check cb "io_items covers path solutions" true
    (r1.Executor.work.Sjos_obs.Work.io_items
     >= 2 * Array.length r1.Executor.tuples
    || Array.length r1.Executor.tuples = 0
    || Pattern.edge_count p = 0)

(* ---------- storage backends: identical output and logical work ------ *)

let test_backend_parity () =
  let doc = Lazy.force Helpers.pers_1k in
  List.iter
    (fun src ->
      let p = Helpers.pat src in
      let run_with config =
        let db = Database.of_document ~storage:config doc in
        let w, r =
          Sjos_obs.Work.scoped (fun () ->
              Database.run
                ~opts:
                  (Query_opts.make ~engine:Optimizer.Holistic ~use_cache:false
                     ())
                db p)
        in
        let run = match r with Ok run -> run | Error e -> raise e in
        let out = tuple_lists run.Database.exec.Executor.tuples in
        Database.dispose db;
        (out, w)
      in
      let out_m, w_m = run_with Column_store.mem in
      let out_d, w_d =
        run_with (Column_store.disk ~page_size:128 ~pool_pages:8 ())
      in
      check
        (Alcotest.list (Alcotest.list ci))
        (src ^ ": mem and disk produce identical ordered tuples")
        out_m out_d;
      check cb
        (src ^ ": work identical modulo page accounting")
        true
        (Sjos_obs.Work.equal_mod_io w_m w_d))
    [
      "manager(//employee(/name))";
      "manager(//employee(//name),//department)";
      "manager(/name,//employee)";
    ]

(* ---------- engine selection ---------- *)

let pers_db = lazy (Database.of_document (Lazy.force Helpers.pers_1k))

let test_holistic_engine_forced () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let prep =
    Database.prepare
      ~opts:(Query_opts.make ~engine:Optimizer.Holistic ~use_cache:false ())
      db p
  in
  let r = Database.prepared_result prep in
  check cb "plan is holistic" true (Sjos_plan.Plan.uses_holistic r.Optimizer.plan);
  check ci "one plan considered" 1 r.Optimizer.plans_considered;
  check cb "EXPLAIN names the operator" true
    (Helpers.contains (Database.explain_prepared prep) "TwigStack")

let test_auto_matches_binary_results () =
  let db = Lazy.force pers_db in
  List.iter
    (fun src ->
      let p = Helpers.pat src in
      let bin =
        Database.run ~opts:(Query_opts.make ~use_cache:false ()) db p
      in
      let auto =
        Database.run
          ~opts:(Query_opts.make ~engine:Optimizer.Auto ~use_cache:false ())
          db p
      in
      let hol =
        Database.run
          ~opts:
            (Query_opts.make ~engine:Optimizer.Holistic ~use_cache:false ())
          db p
      in
      Helpers.check_same_matches (src ^ ": auto = binary") (matches_of bin)
        (matches_of auto);
      Helpers.check_same_matches (src ^ ": holistic = binary") (matches_of bin)
        (matches_of hol);
      check ci
        (src ^ ": auto considered the holistic alternative too")
        (bin.Database.opt.Optimizer.plans_considered + 1)
        auto.Database.opt.Optimizer.plans_considered)
    [
      "manager(//employee)";
      "manager(//employee(/name))";
      "manager(//employee(/name),//department(/name))";
    ]

(* ---------- budgets: truncation is a structured failure ---------- *)

let test_budget_truncation () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let full =
    Database.run
      ~opts:(Query_opts.make ~engine:Optimizer.Holistic ~use_cache:false ())
      db p
  in
  let n = Array.length full.Database.exec.Executor.tuples in
  check cb "fixture produces enough matches" true (n >= 2);
  List.iter
    (fun kernel ->
      let idx = Database.index db in
      let hplan = Sjos_plan.Plan.holistic_of_pattern p in
      match
        Error.protect (fun () ->
            Executor.execute ~kernel ~max_tuples:(n - 1) idx p hplan)
      with
      | Ok _ -> Alcotest.fail "truncated budget must fail"
      | Error (Error.Budget_exhausted { during; _ }) ->
          check Alcotest.string "failed during execution" "execute" during
      | Error e ->
          Alcotest.fail ("unexpected error class: " ^ Error.class_name e))
    [ `Columnar; `Legacy ]

(* ---------- legacy oracle: external streams are verified ---------- *)

let test_legacy_verifies_streams () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee)" in
  let reversed i =
    let a = Array.copy (Candidate.select idx (Pattern.label p i)) in
    let n = Array.length a in
    Array.init n (fun j -> a.(n - 1 - j))
  in
  (match
     Error.protect (fun () ->
         Twig_join.run ~candidates:reversed idx p)
   with
  | Error (Error.Corrupt_input { reason; _ }) ->
      check cb "reason mentions order" true
        (Helpers.contains reason "document order")
  | Ok _ -> Alcotest.fail "reversed stream must be rejected"
  | Error e -> Alcotest.fail ("unexpected error class: " ^ Error.class_name e));
  let bogus _ =
    [| { (Document.node (Lazy.force Helpers.tiny_pers) 0) with Node.id = 999 } |]
  in
  match
    Error.protect (fun () ->
        Twig_join.run ~candidates:bogus idx p)
  with
  | Error (Error.Corrupt_input { reason; _ }) ->
      check cb "reason mentions the id" true (Helpers.contains reason "999")
  | Ok _ -> Alcotest.fail "out-of-document id must be rejected"
  | Error e -> Alcotest.fail ("unexpected error class: " ^ Error.class_name e)

(* External-but-honest streams reproduce the default result exactly. *)
let test_legacy_external_streams_honest () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let honest i = Candidate.select idx (Pattern.label p i) in
  let a = Twig_join.run idx p in
  let b = Twig_join.run ~candidates:honest idx p in
  Helpers.check_same_matches "external streams change nothing"
    (Array.to_list a) (Array.to_list b)

(* ---------- chaos: structured errors only, results never invented ----- *)

let test_chaos_parity () =
  let db = Lazy.force pers_db in
  let patterns =
    [ "manager(//employee(/name))"; "manager(//employee,//department)" ]
  in
  List.iter
    (fun engine ->
      for i = 0 to 14 do
        let seed = (seed_base * 1000) + i in
        List.iter
          (fun src ->
            let p = Helpers.pat src in
            let chaos =
              Chaos.create
                ~faults:
                  Chaos.
                    [ Truncate_candidates; Unsort_candidates; Lie_cardinalities ]
                ~seed ()
            in
            match
              Database.run_r
                ~opts:(Query_opts.make ~engine ~chaos ~use_cache:false ())
                db p
            with
            | Ok run ->
                (* whatever survives is a subset of the truth: chaos can
                   drop candidates, never invent matches *)
                let truth =
                  Database.run
                    ~opts:(Query_opts.make ~engine ~use_cache:false ())
                    db p
                in
                let truth_sorted =
                  Helpers.sorted_tuples (matches_of truth)
                in
                let got = Helpers.sorted_tuples (matches_of run) in
                let rec is_subset small big =
                  match (small, big) with
                  | [], _ -> true
                  | _ :: _, [] -> false
                  | s :: srest, b :: brest ->
                      if s = b then is_subset srest brest
                      else if compare s b > 0 then is_subset small brest
                      else false
                in
                check cb
                  (Printf.sprintf "%s seed %d: no invented matches" src seed)
                  true
                  (is_subset got truth_sorted)
            | Error (Error.Corrupt_input _) -> ()
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "%s seed %d: unexpected class %s" src seed
                     (Error.class_name e))
            | exception e ->
                Alcotest.fail
                  (Printf.sprintf "%s seed %d: unstructured exception %s" src
                     seed (Printexc.to_string e)))
          patterns
      done)
    [ Optimizer.Holistic; Optimizer.Auto ]

let suite =
  [
    Alcotest.test_case "differential: columnar/legacy/binary/naive" `Quick
      test_differential_random;
    Alcotest.test_case "columnar twig work is deterministic" `Quick
      test_columnar_work_deterministic;
    Alcotest.test_case "mem and disk backends agree bit-for-bit" `Quick
      test_backend_parity;
    Alcotest.test_case "engine=holistic forces the twig plan" `Quick
      test_holistic_engine_forced;
    Alcotest.test_case "engine=auto matches binary results" `Quick
      test_auto_matches_binary_results;
    Alcotest.test_case "budget truncation fails structurally" `Quick
      test_budget_truncation;
    Alcotest.test_case "legacy oracle verifies external streams" `Quick
      test_legacy_verifies_streams;
    Alcotest.test_case "legacy oracle accepts honest external streams" `Quick
      test_legacy_external_streams_honest;
    Alcotest.test_case "chaos: structured errors, no invented matches" `Quick
      test_chaos_parity;
  ]
