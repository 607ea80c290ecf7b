open Sjos_xml
open Sjos_storage
open Sjos_histogram
open Sjos_pattern

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---------- Grid ---------- *)

let test_grid_basics () =
  let g = Grid.create 4 in
  check ci "size" 4 (Grid.size g);
  Grid.add g 0 0;
  Grid.add g 1 2;
  Grid.add g 1 2;
  Grid.add g 3 3;
  Helpers.checkf "get" 2.0 (Grid.get g 1 2);
  Helpers.checkf "total" 4.0 (Grid.total g);
  Grid.seal g;
  Helpers.checkf "full sum" 4.0 (Grid.range_sum g ~i0:0 ~i1:3 ~j0:0 ~j1:3);
  Helpers.checkf "row" 2.0 (Grid.range_sum g ~i0:1 ~i1:1 ~j0:0 ~j1:3);
  Helpers.checkf "cell" 1.0 (Grid.range_sum g ~i0:3 ~i1:3 ~j0:3 ~j1:3);
  Helpers.checkf "empty range" 0.0 (Grid.range_sum g ~i0:2 ~i1:1 ~j0:0 ~j1:3);
  Helpers.checkf "clamped" 4.0 (Grid.range_sum g ~i0:(-5) ~i1:99 ~j0:(-1) ~j1:99)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_grid_errors () =
  expect_invalid (fun () -> Grid.create 0);
  let g = Grid.create 2 in
  expect_invalid (fun () -> Grid.add g 2 0);
  expect_invalid (fun () -> Grid.range_sum g ~i0:0 ~i1:1 ~j0:0 ~j1:1);
  Grid.seal g;
  expect_invalid (fun () -> Grid.add g 0 0)

(* ---------- Position histogram ---------- *)

let test_position_histogram () =
  let doc = Lazy.force Helpers.tiny_pers in
  let idx = Lazy.force Helpers.tiny_index in
  let names = Element_index.cols idx "name" in
  let h =
    Position_histogram.build ~grid:8 ~max_pos:(Document.max_pos doc) names
  in
  check ci "grid size" 8 (Position_histogram.grid_size h);
  Helpers.checkf "cardinality" 8.0 (Position_histogram.cardinality h);
  Helpers.checkf "total mass" 8.0
    (Position_histogram.count_in h ~i0:0 ~i1:7 ~j0:0 ~j1:7);
  let levels = Position_histogram.level_counts h in
  Helpers.checkf "level sum" 8.0 (Array.fold_left ( +. ) 0.0 levels);
  check cb "bucket in range" true (Position_histogram.bucket h 0 = 0)

(* ---------- Pair estimation ---------- *)

(* Exact number of (anc, desc) pairs by brute force. *)
let exact_pairs axis anc desc =
  Array.fold_left
    (fun acc a ->
      Array.fold_left
        (fun acc d -> if Axes.related axis ~anc:a ~desc:d then acc + 1 else acc)
        acc desc)
    0 anc

let pair_fixture tag_a tag_b =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Lazy.force Helpers.pers_1k_index in
  let max_pos = Document.max_pos doc in
  let a = Element_index.lookup idx tag_a in
  let b = Element_index.lookup idx tag_b in
  ( Position_histogram.build ~grid:32 ~max_pos (Cols.of_nodes a),
    Position_histogram.build ~grid:32 ~max_pos (Cols.of_nodes b),
    a,
    b )

let test_estimate_ad_reasonable () =
  let ha, hb, a, b = pair_fixture "manager" "employee" in
  let est = Estimator.ancestor_descendant ~anc:ha ~desc:hb in
  let exact = float_of_int (exact_pairs Axes.Descendant a b) in
  check cb "positive" true (est > 0.);
  check cb
    (Printf.sprintf "within 4x of exact (est=%.0f exact=%.0f)" est exact)
    true
    (est > exact /. 4.0 && est < exact *. 4.0)

let test_estimate_pc_le_ad () =
  let ha, hb, _, _ = pair_fixture "manager" "employee" in
  let ad = Estimator.ancestor_descendant ~anc:ha ~desc:hb in
  let pc = Estimator.parent_child ~anc:ha ~desc:hb in
  check cb "pc <= ad" true (pc <= ad +. 1e-9);
  check cb "pc >= 0" true (pc >= 0.)

let test_estimate_empty_side () =
  let doc = Lazy.force Helpers.pers_1k in
  let max_pos = Document.max_pos doc in
  let empty = Position_histogram.build ~grid:32 ~max_pos Cols.empty in
  let ha, _, _, _ = pair_fixture "manager" "employee" in
  Helpers.checkf "empty desc" 0.0 (Estimator.ancestor_descendant ~anc:ha ~desc:empty);
  Helpers.checkf "empty anc" 0.0 (Estimator.ancestor_descendant ~anc:empty ~desc:ha);
  Helpers.checkf "selectivity zero" 0.0
    (Estimator.selectivity Axes.Descendant ~anc:empty ~desc:ha)

let test_estimate_grid_mismatch () =
  let doc = Lazy.force Helpers.pers_1k in
  let max_pos = Document.max_pos doc in
  let h1 = Position_histogram.build ~grid:8 ~max_pos Cols.empty in
  let h2 = Position_histogram.build ~grid:16 ~max_pos Cols.empty in
  expect_invalid (fun () -> Estimator.ancestor_descendant ~anc:h1 ~desc:h2)

let test_selectivity_bounds () =
  let ha, hb, _, _ = pair_fixture "manager" "name" in
  List.iter
    (fun axis ->
      let s = Estimator.selectivity axis ~anc:ha ~desc:hb in
      check cb "in [0,1]" true (s >= 0.0 && s <= 1.0))
    [ Axes.Child; Axes.Descendant ]

(* ---------- Cluster cardinality ---------- *)

let catalog idx = Catalog.create ~capacity:64 idx

let test_cardinality_nodes () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let c = Cardinality.create ~grid:8 (catalog idx) p in
  Helpers.checkf "node 0 card" 3.0 (Cardinality.node_card c 0);
  Helpers.checkf "node 1 card" 3.0 (Cardinality.node_card c 1);
  Helpers.checkf "node 2 card" 8.0 (Cardinality.node_card c 2);
  Helpers.checkf "singleton cluster = node card" 3.0
    (Cardinality.cluster_card c 1)

let test_cardinality_cluster_vs_exact () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let c = Cardinality.create ~grid:32 (catalog idx) p in
  let est = Cardinality.cluster_card c 0b111 in
  let exact = float_of_int (Sjos_exec.Naive.cluster_count idx p 0b111) in
  check cb
    (Printf.sprintf "cluster est within 5x (est=%.0f exact=%.0f)" est exact)
    true
    (est > exact /. 5.0 && est < exact *. 5.0)

let test_cardinality_validation () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let c = Cardinality.create (catalog idx) p in
  expect_invalid (fun () -> Cardinality.cluster_card c 0);
  (* nodes 0 and 2 are not adjacent: not a connected cluster *)
  expect_invalid (fun () -> Cardinality.cluster_card c 0b101);
  check cb "connected" true (Cardinality.is_connected p 0b011);
  check cb "disconnected" false (Cardinality.is_connected p 0b101);
  check ci "root of full" 0 (Cardinality.cluster_root p 0b111);
  check ci "root of subtree" 1 (Cardinality.cluster_root p 0b110)

let test_cardinality_edges () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee)" in
  let c = Cardinality.create ~grid:8 (catalog idx) p in
  match Pattern.edges p with
  | [ e ] ->
      let pairs = Cardinality.edge_pairs c e in
      check cb "pairs positive" true (pairs > 0.);
      let s = Cardinality.edge_selectivity c e in
      check cb "selectivity bounds" true (s >= 0. && s <= 1.);
      Helpers.checkf "pairs = sel * |A| * |B|" pairs (s *. 3.0 *. 3.0);
      Helpers.checkf "full mask" 3.0 (float_of_int (Cardinality.full_mask c))
  | _ -> Alcotest.fail "expected one edge"

(* ---------- Golden estimate bits ---------- *)

let headline = "eNest(//eNest(/eOccasional))"

let golden_docs =
  [
    ("pers_1k", Helpers.pers_1k);
    ("dblp_1k", Helpers.dblp_1k);
    ("mbench_1k", Helpers.mbench_1k);
    ("mbench_20k", lazy (Sjos_datagen.Mbench.generate ~seed:9 ~target_nodes:20000 ()));
  ]

let golden_pattern qid =
  if String.equal qid headline then Parse.pattern headline
  else (Sjos_engine.Workload.find qid).Sjos_engine.Workload.pattern

(* Every estimate of a pattern, in the order of [Golden_estimates]. *)
let estimate_bits c pat =
  let n = Pattern.node_count pat in
  let bits = ref [] in
  let push f = bits := Int64.bits_of_float f :: !bits in
  for i = 0 to n - 1 do
    push (Cardinality.node_card c i)
  done;
  List.iter (fun e -> push (Cardinality.edge_selectivity c e)) (Pattern.edges pat);
  for mask = 1 to (1 lsl n) - 1 do
    if Cardinality.is_connected pat mask then push (Cardinality.cluster_card c mask)
  done;
  Array.of_list (List.rev !bits)

let test_golden_estimates () =
  List.iter
    (fun (q : Sjos_engine.Workload.query) ->
      check cb
        (q.Sjos_engine.Workload.id ^ " has goldens")
        true
        (List.exists
           (fun (_, qid, _, _) -> String.equal qid q.Sjos_engine.Workload.id)
           Golden_estimates.table))
    Sjos_engine.Workload.queries;
  List.iter
    (fun (dname, doc) ->
      (* one catalog per document, shared by every query and grid *)
      let cat = catalog (Element_index.build (Lazy.force doc)) in
      List.iter
        (fun (d, qid, grid, expected) ->
          if String.equal d dname then
            let pat = golden_pattern qid in
            check
              Alcotest.(array int64)
              (Printf.sprintf "%s %s grid %d" dname qid grid)
              expected
              (estimate_bits (Cardinality.create ~grid cat pat) pat))
        Golden_estimates.table)
    golden_docs

(* ---------- Statistics catalog ---------- *)

module Database = Sjos_engine.Database
module Query_opts = Sjos_engine.Query_opts

let no_cache = Query_opts.make ~use_cache:false ()

(* Every estimate a provider gives for a pattern, as bits. *)
let provider_bits (p : Sjos_plan.Costing.provider) pat =
  let n = Pattern.node_count pat in
  let nodes = List.init n (fun i -> p.Sjos_plan.Costing.node_card i) in
  let clusters =
    List.filter_map
      (fun mask ->
        if Cardinality.is_connected pat mask then
          Some (p.Sjos_plan.Costing.cluster_card mask)
        else None)
      (List.init ((1 lsl n) - 1) (fun m -> m + 1))
  in
  Array.of_list (List.map Int64.bits_of_float (nodes @ clusters))

(* The reference a shared catalog must reproduce: the same estimates from
   a catalog of their own. *)
let fresh_bits ~grid pat =
  let c = Cardinality.create ~grid (catalog (Lazy.force Helpers.pers_1k_index)) pat in
  provider_bits
    {
      Sjos_plan.Costing.node_card = Cardinality.node_card c;
      cluster_card = Cardinality.cluster_card c;
    }
    pat

let pers_db ?grid ?cache_capacity () =
  Database.of_document ?grid ?cache_capacity (Lazy.force Helpers.pers_1k)

let builds db = (Catalog.stats (Database.catalog db)).Catalog.builds
let slice_builds db = (Catalog.stats (Database.catalog db)).Catalog.slice_builds

let test_catalog_repeat () =
  let db = pers_db () in
  let p = Helpers.pat "manager(//employee(/name))" in
  check ci "fresh catalog" 0 (builds db);
  ignore (Database.prepare ~opts:no_cache db p);
  let s1 = Catalog.stats (Database.catalog db) in
  check ci "one build per spec" 3 s1.Catalog.builds;
  check ci "one slice build per / end" 2 s1.Catalog.slice_builds;
  ignore (Database.prepare ~opts:no_cache db p);
  let s2 = Catalog.stats (Database.catalog db) in
  check ci "repeat builds no entry" s1.Catalog.builds s2.Catalog.builds;
  check ci "repeat builds no slices" s1.Catalog.slice_builds
    s2.Catalog.slice_builds;
  check ci "repeat hits every node" (s1.Catalog.hits + 3) s2.Catalog.hits

let test_catalog_cache_hit () =
  let db = pers_db () in
  let p = Helpers.pat "manager(//employee(/name))" in
  ignore (Database.prepare db p);
  let s1 = Catalog.stats (Database.catalog db) in
  let prep = Database.prepare db p in
  check cb "plan-cache hit" true (Database.prepared_from_cache prep);
  let s2 = Catalog.stats (Database.catalog db) in
  check ci "hit reads no entry" (s1.Catalog.builds + s1.Catalog.hits)
    (s2.Catalog.builds + s2.Catalog.hits)

let test_catalog_shared_specs () =
  let db = pers_db () in
  ignore
    (Database.prepare ~opts:no_cache db
       (Helpers.pat "manager(//employee(/name))"));
  let b0 = builds db and sb0 = slice_builds db in
  (* manager and name are cached; department is new, and so are its
     slices (name's already exist) *)
  ignore
    (Database.prepare ~opts:no_cache db
       (Helpers.pat "manager(//department(/name))"));
  check ci "only the new spec is built" (b0 + 1) (builds db);
  check ci "only the new slices are built" (sb0 + 1) (slice_builds db)

let test_catalog_grids () =
  let db = pers_db () in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let fingerprint db = provider_bits (Database.provider db p) p in
  check (Alcotest.array Alcotest.int64) "grid 32" (fresh_bits ~grid:32 p)
    (fingerprint db);
  let b = builds db in
  (* a per-query grid override builds its own entries... *)
  let cost grid db =
    (Database.prepared_result
       (Database.prepare ~opts:(Query_opts.make ~grid ()) db p))
      .Sjos_core.Optimizer.est_cost
  in
  let c8 = cost 8 db in
  check ci "override builds its own grid" (b + 4) (builds db);
  check Alcotest.int64 "override cost = fresh grid-8 database"
    (Int64.bits_of_float (cost 8 (pers_db ~grid:8 ())))
    (Int64.bits_of_float c8);
  (* ...and neither it nor set_grid leaks into another grid *)
  check (Alcotest.array Alcotest.int64) "grid 32 after override"
    (fresh_bits ~grid:32 p) (fingerprint db);
  Database.set_grid db 8;
  check (Alcotest.array Alcotest.int64) "set_grid 8" (fresh_bits ~grid:8 p)
    (fingerprint db);
  Database.set_grid db 16;
  check (Alcotest.array Alcotest.int64) "set_grid 16" (fresh_bits ~grid:16 p)
    (fingerprint db)

let test_catalog_lru () =
  let db = pers_db ~cache_capacity:2 () in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let bits = provider_bits (Database.provider db p) p in
  let s = Catalog.stats (Database.catalog db) in
  check ci "capacity" 2 s.Catalog.capacity;
  check cb "bounded" true (s.Catalog.entries <= 2);
  check cb "evicted" true (s.Catalog.evictions > 0);
  check (Alcotest.array Alcotest.int64) "estimates unaffected"
    (fresh_bits ~grid:32 p) bits

let test_catalog_concurrent () =
  let pats =
    List.map Helpers.pat
      [
        "manager(//employee(/name))";
        "manager(//employee(/name),//department(/name))";
        "manager(//employee(/name),//manager(/department(/name)))";
        "manager(/name)";
        "employee(/name)";
        "manager(//department(/name),//manager(/employee(/name)))";
      ]
    |> Array.of_list
  in
  let run pool =
    let db = pers_db () in
    let bits =
      Sjos_par.Pool.run pool (Array.length pats) (fun i ->
          let p = pats.(i) in
          ignore (Database.prepare ~opts:no_cache db p);
          provider_bits (Database.provider db p) p)
    in
    (bits, builds db, slice_builds db)
  in
  let serial = run Sjos_par.Pool.serial in
  List.iter
    (fun domains ->
      let pool = Sjos_par.Pool.create ~domains () in
      let bits, b, sb = run pool in
      Sjos_par.Pool.shutdown pool;
      let sbits, sb_, ssb = serial in
      check
        Alcotest.(array (array int64))
        (Printf.sprintf "%d domains: estimates" domains)
        sbits bits;
      check ci (Printf.sprintf "%d domains: builds" domains) sb_ b;
      check ci (Printf.sprintf "%d domains: slice builds" domains) ssb sb)
    [ 2; 4 ]

let suite =
  [
    ("grid basics", `Quick, test_grid_basics);
    ("grid errors", `Quick, test_grid_errors);
    ("position histogram", `Quick, test_position_histogram);
    ("AD estimate near exact", `Quick, test_estimate_ad_reasonable);
    ("PC estimate below AD", `Quick, test_estimate_pc_le_ad);
    ("estimates with empty side", `Quick, test_estimate_empty_side);
    ("grid mismatch rejected", `Quick, test_estimate_grid_mismatch);
    ("selectivity bounds", `Quick, test_selectivity_bounds);
    ("cardinality of nodes", `Quick, test_cardinality_nodes);
    ("cluster estimate vs exact", `Quick, test_cardinality_cluster_vs_exact);
    ("cardinality validation", `Quick, test_cardinality_validation);
    ("edge pairs and selectivity", `Quick, test_cardinality_edges);
    ("golden estimate bits", `Quick, test_golden_estimates);
    ("catalog: repeat prepare builds nothing", `Quick, test_catalog_repeat);
    ("catalog: plan-cache hit reads nothing", `Quick, test_catalog_cache_hit);
    ("catalog: shared specs are reused", `Quick, test_catalog_shared_specs);
    ("catalog: grids never mix", `Quick, test_catalog_grids);
    ("catalog: LRU bound holds", `Quick, test_catalog_lru);
    ("catalog: concurrent prepares agree", `Quick, test_catalog_concurrent);
  ]
