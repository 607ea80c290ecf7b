(* Differential properties for the columnar batch execution engine: on
   randomized documents x tag pairs x axes x both Stack-Tree variants, the
   flat-array kernels must produce exactly the tuple sequence (same
   tuples, same order) and exactly the counters of the legacy list-based
   kernels kept in {!Sjos_exec.Stack_tree_legacy} — including on
   chaos-truncated inputs.  [Work.items_skipped] is deliberately
   excluded from the comparison: it is the batch engine's own diagnostic
   and is always 0 for the legacy kernels.

   Seeds are deterministic; CI varies the base via the SJOS_BATCH_SEED
   environment variable so different runs explore different documents
   while any failure stays replayable from its seed. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_core
open Sjos_exec
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int

let seed_base =
  match Sys.getenv_opt "SJOS_BATCH_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 7)
  | None -> 7

(* ---------- comparison helpers ---------- *)

let check_same_tuple_seq msg (expected : Tuple.t array) (actual : Tuple.t array)
    =
  check ci (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i t ->
      if not (Tuple.equal t actual.(i)) then
        Alcotest.failf "%s: tuple %d differs: %s vs %s" msg i
          (Tuple.to_string t)
          (Tuple.to_string actual.(i)))
    expected

let docs_under_test seed =
  [
    ("pers", Sjos_datagen.Pers.generate ~seed ~target_nodes:600 ());
    ("dblp", Sjos_datagen.Dblp.generate ~seed:(seed + 1) ~target_nodes:600 ());
    ( "mbench",
      Sjos_datagen.Mbench.generate ~seed:(seed + 2) ~target_nodes:600 () );
  ]

let scan idx tag slot width =
  Operators.index_scan ~width ~slot (Element_index.lookup idx tag)

(* Run one (anc tag, desc tag, axis, algo) case through both engines. *)
let join_both ~doc ~idx ~atag ~dtag ~axis ~algo =
  let legacy, legacy_work =
    Work.measure (fun () ->
        Stack_tree_legacy.join ~doc ~axis ~algo
          ~anc:(scan idx atag 0 2, 0)
          ~desc:(scan idx dtag 1 2, 1)
          ())
  in
  let batch, batch_work =
    Work.measure (fun () ->
        Stack_tree.join ~doc ~axis ~algo
          ~anc:(scan idx atag 0 2, 0)
          ~desc:(scan idx dtag 1 2, 1)
          ())
  in
  (legacy, legacy_work, batch, batch_work)

let all_cases = [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]
let all_axes = [ Axes.Descendant; Axes.Child ]

(* ---------- kernel-level differential ---------- *)

let test_kernel_differential () =
  List.iter
    (fun (name, doc) ->
      let idx = Element_index.build doc in
      let tags = Array.of_list (Document.tags doc) in
      let rng = Sjos_datagen.Rng.create (seed_base + 11) in
      for _ = 1 to 24 do
        let atag = tags.(Sjos_datagen.Rng.int rng (Array.length tags)) in
        let dtag = tags.(Sjos_datagen.Rng.int rng (Array.length tags)) in
        List.iter
          (fun axis ->
            List.iter
              (fun algo ->
                let msg =
                  Printf.sprintf "%s %s->%s %s/%s" name atag dtag
                    (match axis with Axes.Child -> "child" | _ -> "desc")
                    (match algo with
                    | Plan.Stack_tree_desc -> "STJ-D"
                    | Plan.Stack_tree_anc -> "STJ-A")
                in
                let legacy, lm, batch, bm =
                  join_both ~doc ~idx ~atag ~dtag ~axis ~algo
                in
                check_same_tuple_seq msg legacy batch;
                Helpers.check_work_mod_skips msg ~legacy:lm bm)
              all_cases)
          all_axes
      done)
    (docs_under_test seed_base)

(* ---------- multi-join chains (duplicate join values) ---------- *)

let chain_legacy ~doc ~idx (t0, t1, t2) ~axis ~algo =
  Work.measure (fun () ->
      let a = scan idx t0 0 3 in
      let b = scan idx t1 1 3 in
      let j1 =
        Stack_tree_legacy.join ~doc ~axis ~algo ~anc:(a, 0) ~desc:(b, 1) ()
      in
      let sorted = Operators.sort_legacy ~doc ~by:1 j1 in
      let c = scan idx t2 2 3 in
      Stack_tree_legacy.join ~doc ~axis ~algo ~anc:(sorted, 1) ~desc:(c, 2) ())

let chain_batch ~doc ~idx (t0, t1, t2) ~axis ~algo =
  Work.measure (fun () ->
      let a = scan idx t0 0 3 in
      let b = scan idx t1 1 3 in
      let j1 = Stack_tree.join ~doc ~axis ~algo ~anc:(a, 0) ~desc:(b, 1) () in
      let sorted = Operators.sort ~doc ~by:1 j1 in
      let c = scan idx t2 2 3 in
      Stack_tree.join ~doc ~axis ~algo ~anc:(sorted, 1) ~desc:(c, 2) ())

let test_multi_join_chain () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let chains =
    [ ("manager", "employee", "name"); ("manager", "manager", "name") ]
  in
  List.iter
    (fun chain ->
      List.iter
        (fun axis ->
          List.iter
            (fun algo ->
              let legacy, lm = chain_legacy ~doc ~idx chain ~axis ~algo in
              let batch, bm = chain_batch ~doc ~idx chain ~axis ~algo in
              check_same_tuple_seq "chain" legacy batch;
              Helpers.check_work_mod_skips "chain" ~legacy:lm bm)
            all_cases)
        all_axes)
    chains

(* ---------- chaos-style inputs ---------- *)

let test_truncated_inputs () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let rng = Sjos_datagen.Rng.create (seed_base + 23) in
  for _ = 1 to 12 do
    let anc = scan idx "manager" 0 2 in
    let desc = scan idx "name" 1 2 in
    (* truncation keeps a sorted prefix — both engines must agree *)
    let anc = Array.sub anc 0 (Sjos_datagen.Rng.int rng (Array.length anc + 1)) in
    let desc =
      Array.sub desc 0 (Sjos_datagen.Rng.int rng (Array.length desc + 1))
    in
    List.iter
      (fun algo ->
        let legacy, lm =
          Work.measure (fun () ->
              Stack_tree_legacy.join ~doc ~axis:Axes.Descendant ~algo
                ~anc:(anc, 0) ~desc:(desc, 1) ())
        in
        let batch, bm =
          Work.measure (fun () ->
              Stack_tree.join ~doc ~axis:Axes.Descendant ~algo ~anc:(anc, 0)
                ~desc:(desc, 1) ())
        in
        check_same_tuple_seq "truncated" legacy batch;
        Helpers.check_work_mod_skips "truncated" ~legacy:lm bm)
      all_cases
  done

let test_unsorted_rejected_identically () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let anc = scan idx "manager" 0 2 in
  let desc = scan idx "name" 1 2 in
  let n = Array.length anc in
  Alcotest.(check bool) "enough managers" true (n > 2);
  (* swap two tuples with distinct join nodes: unsorted input *)
  let unsorted = Array.copy anc in
  let tmp = unsorted.(0) in
  unsorted.(0) <- unsorted.(n - 1);
  unsorted.(n - 1) <- tmp;
  let expected = "Stack_tree: input not sorted by its join slot" in
  (match
     Stack_tree_legacy.join ~doc ~axis:Axes.Descendant
       ~algo:Plan.Stack_tree_desc ~anc:(unsorted, 0)
       ~desc:(desc, 1) ()
   with
  | exception Invalid_argument m -> check Alcotest.string "legacy rejects" expected m
  | _ -> Alcotest.fail "legacy accepted unsorted input");
  match
    Stack_tree.join ~doc ~axis:Axes.Descendant ~algo:Plan.Stack_tree_desc
      ~anc:(unsorted, 0) ~desc:(desc, 1) ()
  with
  | exception Invalid_argument m -> check Alcotest.string "batch rejects" expected m
  | _ -> Alcotest.fail "batch accepted unsorted input"

(* ---------- executor-level differential ---------- *)

let run_both_kernels ?fetch index pattern =
  let provider = Sjos_exec.Naive.exact_provider index pattern in
  let _, plan = Dpp.run (Search.make_ctx ~provider pattern) in
  let legacy = Executor.execute ?fetch ~kernel:`Legacy index pattern plan in
  let batch = Executor.execute ?fetch ~kernel:`Columnar index pattern plan in
  (legacy, batch)

let test_executor_kernel_differential () =
  List.iter
    (fun (query : Sjos_engine.Workload.query) ->
      let doc =
        Sjos_engine.Workload.generate ~size:1500 query.Sjos_engine.Workload.dataset
      in
      let index = Element_index.build doc in
      let legacy, batch =
        run_both_kernels index query.Sjos_engine.Workload.pattern
      in
      let msg = query.Sjos_engine.Workload.id in
      check_same_tuple_seq msg legacy.Executor.tuples batch.Executor.tuples;
      Helpers.check_work_mod_skips msg ~legacy:legacy.Executor.work
        batch.Executor.work;
      Helpers.check_float (msg ^ ": cost units") legacy.Executor.cost_units
        batch.Executor.cost_units)
    Sjos_engine.Workload.queries

let test_executor_fetch_differential () =
  (* an external fetch that truncates candidate streams: both kernels see
     the same degraded inputs and must still agree *)
  let query = Sjos_engine.Workload.q_pers_3_d in
  let doc = Sjos_engine.Workload.generate ~size:1500 Sjos_engine.Workload.Pers in
  let index = Element_index.build doc in
  let fetch spec =
    let base = Candidate.select index spec in
    Array.sub base 0 (2 * Array.length base / 3)
  in
  let legacy, batch =
    run_both_kernels ~fetch index query.Sjos_engine.Workload.pattern
  in
  check_same_tuple_seq "fetch" legacy.Executor.tuples batch.Executor.tuples;
  Helpers.check_work_mod_skips "fetch" ~legacy:legacy.Executor.work
    batch.Executor.work

(* ---------- the skip-ahead actually skips ---------- *)

let test_skip_ahead_counts () =
  (* Mbench at this size has many level-tagged joins where most input is
     unproductive; assert the batch engine records skips somewhere while
     still matching the legacy engine everywhere (covered above). *)
  let doc = Lazy.force Helpers.mbench_1k in
  let idx = Element_index.build doc in
  let total = ref 0 in
  let tags = Array.of_list (Document.tags doc) in
  Array.iter
    (fun atag ->
      Array.iter
        (fun dtag ->
          let _, _, _, bm = join_both ~doc ~idx ~atag ~dtag
              ~axis:Axes.Child ~algo:Plan.Stack_tree_desc in
          total := !total + bm.Work.items_skipped)
        tags)
    tags;
  Alcotest.(check bool) "skip-ahead fired" true (!total > 0)

(* ---------- Batch/Ibuf unit tests ---------- *)

let test_ibuf () =
  let b = Batch.Ibuf.create 1 in
  for i = 0 to 99 do
    Batch.Ibuf.push b i
  done;
  check ci "len" 100 (Batch.Ibuf.length b);
  check ci "get" 42 (Batch.Ibuf.get b 42);
  check ci "to_array" 99 (Batch.Ibuf.to_array b).(99);
  Batch.Ibuf.clear b;
  check ci "cleared" 0 (Batch.Ibuf.length b);
  Batch.Ibuf.reserve b 1000;
  check ci "reserve keeps len" 0 (Batch.Ibuf.length b)

let test_batch_roundtrip () =
  let tuples =
    [| [| 1; Tuple.unbound |]; [| 2; 5 |]; [| Tuple.unbound; 9 |] |]
  in
  let b = Batch.of_tuples ~width:2 tuples in
  check ci "width" 2 (Batch.width b);
  check ci "length" 3 (Batch.length b);
  check ci "get" 5 (Batch.get b 1 1);
  let back = Batch.to_tuples b in
  Array.iteri
    (fun i t -> Alcotest.(check bool) "roundtrip" true (Tuple.equal t back.(i)))
    tuples;
  (match Batch.of_tuples ~width:3 tuples with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch should be rejected");
  (match Batch.unsafe_of_raw ~width:2 ~len:4 (Array.make 6 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short raw array should be rejected");
  let ids = Batch.of_ids ~width:2 ~slot:1 [| 3; 7 |] in
  check ci "of_ids bound" 7 (Batch.get ids 1 1);
  check ci "of_ids unbound" Tuple.unbound (Batch.get ids 1 0)

let test_batch_sort_matches_tuple_sort () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let tuples =
    Stack_tree.join ~doc ~axis:Axes.Descendant ~algo:Plan.Stack_tree_anc
      ~anc:(scan idx "manager" 0 2, 0)
      ~desc:(scan idx "name" 1 2, 1)
      ()
  in
  (* result is ordered by slot 0; re-sorting by slot 1 must agree with the
     legacy comparator sort (both stable) *)
  let reference = Array.copy tuples in
  Array.stable_sort (Tuple.compare_by_slot doc 1) reference;
  let via_tuples = Batch.sort_tuples ~doc ~by:1 tuples in
  check_same_tuple_seq "sort_tuples" reference via_tuples;
  let via_batch =
    Batch.to_tuples
      (Batch.sort ~doc ~by:1 (Batch.of_tuples ~width:2 tuples))
  in
  check_same_tuple_seq "Batch.sort" reference via_batch

let suite =
  [
    Alcotest.test_case "kernel differential: legacy = columnar" `Slow
      test_kernel_differential;
    Alcotest.test_case "multi-join chains agree" `Quick test_multi_join_chain;
    Alcotest.test_case "truncated inputs agree" `Quick test_truncated_inputs;
    Alcotest.test_case "unsorted input rejected identically" `Quick
      test_unsorted_rejected_identically;
    Alcotest.test_case "executor kernels agree on the workload" `Slow
      test_executor_kernel_differential;
    Alcotest.test_case "executor kernels agree under degraded fetch" `Quick
      test_executor_fetch_differential;
    Alcotest.test_case "skip-ahead fires and is counted" `Quick
      test_skip_ahead_counts;
    Alcotest.test_case "int buffers" `Quick test_ibuf;
    Alcotest.test_case "batch round-trips" `Quick test_batch_roundtrip;
    Alcotest.test_case "key-column sort = comparator sort" `Quick
      test_batch_sort_matches_tuple_sort;
  ]
