(* Pager (buffer pool) and MPMGJN merge-join tests. *)

open Sjos_xml
open Sjos_storage
open Sjos_exec

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---------- Pager ---------- *)

let test_pager_basics () =
  let p = Pager.create ~page_size:10 ~pool_pages:2 () in
  check ci "page size" 10 (Pager.page_size p);
  let seg = Pager.allocate p ~items:25 in
  check ci "3 pages for 25 items" 3 (Pager.segment_pages p seg);
  Pager.scan p seg;
  let s = Pager.stats p in
  check ci "3 accesses" 3 s.Pager.accesses;
  check ci "3 cold misses" 3 s.Pager.misses;
  check ci "one eviction (pool of 2)" 1 s.Pager.evictions;
  check ci "resident bounded" 2 (Pager.resident_pages p)

let test_pager_lru () =
  let p = Pager.create ~page_size:1 ~pool_pages:2 () in
  let seg = Pager.allocate p ~items:3 in
  (* pages 0,1,2 *)
  Pager.scan_range p seg ~first_item:0 ~n_items:1;
  (* [0] *)
  Pager.scan_range p seg ~first_item:1 ~n_items:1;
  (* [1,0] *)
  Pager.scan_range p seg ~first_item:0 ~n_items:1;
  (* hit; [0,1] *)
  Pager.scan_range p seg ~first_item:2 ~n_items:1;
  (* miss; evict 1 -> [2,0] *)
  Pager.scan_range p seg ~first_item:0 ~n_items:1;
  (* hit *)
  Pager.scan_range p seg ~first_item:1 ~n_items:1;
  (* miss *)
  let s = Pager.stats p in
  check ci "hits" 2 s.Pager.hits;
  check ci "misses" 4 s.Pager.misses;
  check cb "hit ratio" true (abs_float (Pager.hit_ratio p -. (2. /. 6.)) < 1e-9)

let test_pager_reuse_across_scans () =
  (* a pool big enough for both segments turns the second scan into hits *)
  let p = Pager.create ~page_size:4 ~pool_pages:100 () in
  let a = Pager.allocate p ~items:40 in
  let b = Pager.allocate p ~items:40 in
  Pager.scan p a;
  Pager.scan p b;
  Pager.reset_stats p;
  Pager.scan p a;
  Pager.scan p b;
  let s = Pager.stats p in
  check ci "all hits on rescan" s.Pager.accesses s.Pager.hits;
  (* a pool of 1 page thrashes *)
  let q = Pager.create ~page_size:4 ~pool_pages:1 () in
  let c = Pager.allocate q ~items:40 in
  Pager.scan q c;
  Pager.reset_stats q;
  Pager.scan q c;
  check ci "all misses when thrashing" (Pager.stats q).Pager.accesses
    (Pager.stats q).Pager.misses

let test_pager_errors () =
  expect_invalid (fun () -> Pager.create ~page_size:0 ~pool_pages:1 ());
  expect_invalid (fun () -> Pager.create ~pool_pages:0 ());
  let p = Pager.create ~pool_pages:4 () in
  expect_invalid (fun () -> Pager.allocate p ~items:(-1));
  let seg = Pager.allocate p ~items:10 in
  expect_invalid (fun () -> Pager.scan_range p seg ~first_item:5 ~n_items:6);
  Helpers.checkf "ratio before access" 0.0 (Pager.hit_ratio p)

(* ---------- MPMGJN ---------- *)

let mj_doc = lazy (Parser.parse_string "<a><a><b/></a><b/><c><b/></c></a>")

let test_mpmgjn_pairs () =
  let doc = Lazy.force mj_doc in
  let idx = Element_index.build doc in
  let a = Operators.index_scan ~width:2 ~slot:0 (Element_index.lookup idx "a") in
  let b = Operators.index_scan ~width:2 ~slot:1 (Element_index.lookup idx "b") in
  let out =
    Merge_join.join ~doc ~axis:Axes.Descendant ~anc:(a, 0) ~desc:(b, 1)
  in
  let pairs =
    Array.to_list out |> List.map (fun t -> (Tuple.get t 0, Tuple.get t 1))
  in
  (* ordered by ancestor *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pairs" [ (0, 2); (0, 3); (0, 5); (1, 2) ] pairs

let test_mpmgjn_matches_stack_tree () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let doc = Element_index.document idx in
  List.iter
    (fun (anc_tag, desc_tag, axis) ->
      let scan slot tag =
        Operators.index_scan ~width:2 ~slot (Element_index.lookup idx tag)
      in
      let st =
        Stack_tree.join ~doc ~axis ~algo:Sjos_plan.Plan.Stack_tree_anc
          ~anc:(scan 0 anc_tag, 0)
          ~desc:(scan 1 desc_tag, 1)
          ()
      in
      let mj =
        Merge_join.join ~doc ~axis ~anc:(scan 0 anc_tag, 0)
          ~desc:(scan 1 desc_tag, 1)
      in
      Helpers.check_same_matches
        (Printf.sprintf "%s-%s" anc_tag desc_tag)
        (Array.to_list st) (Array.to_list mj))
    [
      ("manager", "employee", Axes.Descendant);
      ("manager", "name", Axes.Descendant);
      ("employee", "name", Axes.Child);
      ("manager", "manager", Axes.Descendant);
    ]

let test_mpmgjn_rescans_nested () =
  (* on deeply nested ancestors MPMGJN re-scans descendants: its scan-step
     count exceeds Stack-Tree's stack-op count *)
  let idx = Lazy.force Helpers.pers_1k_index in
  let doc = Element_index.document idx in
  let scan slot tag =
    Operators.index_scan ~width:2 ~slot (Element_index.lookup idx tag)
  in
  let _, w1 =
    Sjos_obs.Work.measure (fun () ->
        Stack_tree.join ~doc ~axis:Axes.Descendant
          ~algo:Sjos_plan.Plan.Stack_tree_desc
          ~anc:(scan 0 "manager", 0)
          ~desc:(scan 1 "name", 1)
          ())
  in
  let _, w2 =
    Sjos_obs.Work.measure (fun () ->
        Merge_join.join ~doc ~axis:Axes.Descendant
          ~anc:(scan 0 "manager", 0)
          ~desc:(scan 1 "name", 1))
  in
  let st_ops = w1.Sjos_obs.Work.stack_ops
  and mj_ops = w2.Sjos_obs.Work.stack_ops in
  check cb
    (Printf.sprintf "MPMGJN steps (%d) > Stack-Tree ops (%d)" mj_ops st_ops)
    true (mj_ops > st_ops)

let test_mpmgjn_unsorted_rejected () =
  let doc = Lazy.force mj_doc in
  let idx = Element_index.build doc in
  let a =
    Operators.index_scan ~width:2 ~slot:0 (Element_index.lookup idx "a")
  in
  let reversed = Array.of_list (List.rev (Array.to_list a)) in
  expect_invalid (fun () ->
      Merge_join.join ~doc ~axis:Axes.Descendant ~anc:(reversed, 0)
        ~desc:(a, 1))

let suite =
  [
    ("pager basics", `Quick, test_pager_basics);
    ("pager LRU order", `Quick, test_pager_lru);
    ("pager reuse vs thrash", `Quick, test_pager_reuse_across_scans);
    ("pager errors", `Quick, test_pager_errors);
    ("mpmgjn pairs", `Quick, test_mpmgjn_pairs);
    ("mpmgjn = stack-tree results", `Quick, test_mpmgjn_matches_stack_tree);
    ("mpmgjn rescans nested data", `Quick, test_mpmgjn_rescans_nested);
    ("mpmgjn unsorted rejected", `Quick, test_mpmgjn_unsorted_rejected);
  ]
