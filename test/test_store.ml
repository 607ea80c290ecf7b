(* Differential suite for the backend-polymorphic column store: the Disk
   backend must be observationally identical to Mem — same tuples in the
   same order, same deterministic work counters, per executor run and
   per query —
   across page sizes, pool sizes (including pools small enough to force
   mid-join eviction), kernels, chaos faults and domain counts.  The only
   permitted divergence is the IO accounting ([Work.page_touches],
   [Pager.stats]) — that divergence is the backend's entire point. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_exec
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

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

(* Every counter but [page_touches], the one the backends may differ on. *)
let check_work_mod_pages msg (a : Work.t) (b : Work.t) =
  Helpers.check_work msg
    { a with Work.page_touches = 0 }
    { b with Work.page_touches = 0 }

(* The workload slice used throughout: pure-tag leaves (served lazily on
   Disk) and one child-axis query. *)
let query_texts =
  [
    "manager(//employee(/name))";
    "manager(//employee(/name),//department(/name))";
    "manager(//department(/name),//manager(/employee(/name)))";
    "manager(/employee)";
  ]

let run_one db text =
  let work, outcome =
    Work.scoped (fun () -> Database.run db (Helpers.pat text))
  in
  let r = match outcome with Ok r -> r | Error e -> raise e in
  (r.Database.exec.Executor.tuples, r.Database.exec.Executor.work, work)

(* ---------- Mem vs Disk over the page/pool grid ---------- *)

let test_differential () =
  let doc = Lazy.force Helpers.pers_1k in
  List.iter
    (fun (page_size, pool_pages) ->
      (* a fresh Mem baseline per config: both sides must pay the same
         optimizer search (the plan cache is part of the Work score) *)
      let db_mem = Database.of_document ~storage:Column_store.mem doc in
      let db_disk =
        Database.of_document
          ~storage:(Column_store.disk ~page_size ~pool_pages ())
          doc
      in
      List.iter
        (fun text ->
          let msg =
            Printf.sprintf "%s @ page=%d pool=%d" text page_size pool_pages
          in
          let tm, mm, wm = run_one db_mem text in
          let td, md, wd = run_one db_disk text in
          check_same_tuple_seq msg tm td;
          check_work_mod_pages msg mm md;
          check cb (msg ^ ": work equal mod IO") true (Work.equal_mod_io wm wd);
          check ci (msg ^ ": core score") (Work.core_score wm)
            (Work.core_score wd);
          check ci (msg ^ ": mem touches nothing") 0 wm.Work.page_touches;
          check cb (msg ^ ": disk touches pages") true (wd.Work.page_touches > 0))
        query_texts;
      (match Column_store.io_stats (Database.store db_disk) with
      | None -> Alcotest.fail "disk store has no io stats"
      | Some s ->
          check cb "pool saw accesses" true (s.Pager.accesses > 0);
          if pool_pages = 2 then
            check cb "tiny pool evicts mid-join" true (s.Pager.evictions > 0));
      Database.dispose db_disk)
    [ (64, 2); (64, 8); (256, 8); (1024, 64) ]

(* ---------- lazy leaves feeding the kernels directly ---------- *)

let leaf_scan store ~width ~slot tag =
  match Column_store.leaf store (Candidate.of_tag tag) with
  | None -> Alcotest.failf "no leaf for pure tag %s" tag
  | Some lf ->
      let w = Work.current () in
      w.Work.candidates_scanned <-
        w.Work.candidates_scanned + Column_store.leaf_length lf;
      Stack_tree.leaf ~width ~slot lf

let rows_scan index ~width ~slot tag =
  Stack_tree.Rows
    (Operators.index_scan_batch ~width ~slot (Element_index.cols index tag))

let algo_name = function
  | Plan.Stack_tree_desc -> "stj-desc"
  | Plan.Stack_tree_anc -> "stj-anc"

let test_leaf_kernel () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      index
  in
  let pool = Sjos_par.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () ->
      Sjos_par.Pool.shutdown pool;
      Column_store.dispose store)
  @@ fun () ->
  List.iter
    (fun algo ->
      List.iter
        (fun axis ->
          let name =
            Printf.sprintf "%s/%s" (algo_name algo) (Axes.axis_to_string axis)
          in
          let reference, reference_work =
            Work.measure (fun () ->
                let anc = rows_scan index ~width:2 ~slot:0 "manager" in
                let desc = rows_scan index ~width:2 ~slot:1 "employee" in
                Batch.to_tuples
                  (Stack_tree.join_batch_in ~doc ~axis ~algo ~anc:(anc, 0)
                     ~desc:(desc, 1) ()))
          in
          let variants =
            [
              ( "lazy leaves",
                fun () ->
                  ( leaf_scan store ~width:2 ~slot:0 "manager",
                    leaf_scan store ~width:2 ~slot:1 "employee",
                    None,
                    None ) );
              ( "leaf anc, rows desc",
                fun () ->
                  ( leaf_scan store ~width:2 ~slot:0 "manager",
                    rows_scan index ~width:2 ~slot:1 "employee",
                    None,
                    None ) );
              ( "sharded leaves",
                fun () ->
                  ( leaf_scan store ~width:2 ~slot:0 "manager",
                    leaf_scan store ~width:2 ~slot:1 "employee",
                    Some pool,
                    Some 1 ) );
            ]
          in
          List.iter
            (fun (vname, build) ->
              let b, w =
                Work.measure (fun () ->
                    let anc, desc, pool, par_min_rows = build () in
                    Stack_tree.join_batch_in ?pool ?par_min_rows ~doc ~axis
                      ~algo ~anc:(anc, 0) ~desc:(desc, 1) ())
              in
              let msg = name ^ " " ^ vname in
              check_same_tuple_seq msg reference (Batch.to_tuples b);
              check_work_mod_pages msg reference_work w)
            variants)
        [ Axes.Descendant; Axes.Child ])
    [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]

(* A lazy leaf join never reads more pages than materializing its leaves
   outright (it can only save: ids pages are read per emitted chunk, and
   gallop probes touch O(log) pages per skip). *)
let test_leaf_laziness_bounded () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:256 ())
      index
  in
  Fun.protect ~finally:(fun () -> Column_store.dispose store)
  @@ fun () ->
  let anc = leaf_scan store ~width:2 ~slot:0 "manager" in
  let desc = leaf_scan store ~width:2 ~slot:1 "employee" in
  ignore
    (Stack_tree.join_batch_in ~doc ~axis:Axes.Descendant
       ~algo:Plan.Stack_tree_desc ~anc:(anc, 0) ~desc:(desc, 1) ());
  let lazy_misses =
    (Option.get (Column_store.io_stats store)).Pager.misses
  in
  Column_store.reset_io store;
  ignore (Column_store.select store (Candidate.of_tag "manager"));
  ignore (Column_store.select store (Candidate.of_tag "employee"));
  let full_misses = (Option.get (Column_store.io_stats store)).Pager.misses in
  check cb "lazy join misses <= full materialization" true
    (lazy_misses <= full_misses);
  check cb "full scan reads every page exactly once" true (full_misses > 0)

(* ---------- legacy kernel reads through the same store ---------- *)

let test_legacy_kernel_disk () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:128 ~pool_pages:8 ())
      index
  in
  Fun.protect ~finally:(fun () -> Column_store.dispose store)
  @@ fun () ->
  let p = Helpers.pat "manager(//employee)" in
  let edge = List.hd (Pattern.edges p) in
  let plan =
    Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1) ~edge
      ~algo:Plan.Stack_tree_desc
  in
  let mem = Executor.execute index p plan in
  let legacy = Executor.execute ~kernel:`Legacy ~store index p plan in
  let columnar = Executor.execute ~store index p plan in
  check_same_tuple_seq "legacy@disk vs mem" mem.Executor.tuples
    legacy.Executor.tuples;
  check_same_tuple_seq "columnar@disk vs mem" mem.Executor.tuples
    columnar.Executor.tuples;
  check ci "legacy index_items" mem.Executor.work.Work.candidates_scanned
    legacy.Executor.work.Work.candidates_scanned

(* ---------- predicate specs (no leaf path) stay identical ---------- *)

let test_predicate_spec_differential () =
  let doc = Lazy.force Helpers.mbench_1k in
  let db_mem = Database.of_document ~storage:Column_store.mem doc in
  let db_disk =
    Database.of_document
      ~storage:(Column_store.disk ~page_size:256 ~pool_pages:8 ())
      doc
  in
  let text = "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aLevel='7']))" in
  let tm, mm, wm = run_one db_mem text in
  let td, md, wd = run_one db_disk text in
  check_same_tuple_seq "mbench attr query" tm td;
  check_work_mod_pages "mbench attr query" mm md;
  check cb "work equal mod IO" true (Work.equal_mod_io wm wd);
  Database.dispose db_disk

(* ---------- chaos faults are backend-independent ---------- *)

let test_chaos_differential () =
  let doc = Lazy.force Helpers.pers_1k in
  let run_with storage seed =
    let db = Database.of_document ~storage doc in
    let chaos =
      Sjos_guard.Chaos.create
        ~faults:[ Sjos_guard.Chaos.Truncate_candidates ]
        ~seed ()
    in
    let opts = Query_opts.make ~chaos () in
    let out =
      List.map
        (fun text ->
          match Database.run_r ~opts db (Helpers.pat text) with
          | Ok r ->
              Ok
                (Array.map Array.to_list r.Database.exec.Executor.tuples
                |> Array.to_list)
          | Error e -> Error (Sjos_guard.Error.class_name e))
        query_texts
    in
    Database.dispose db;
    out
  in
  List.iter
    (fun seed ->
      let mem = run_with Column_store.mem seed in
      let disk =
        run_with (Column_store.disk ~page_size:64 ~pool_pages:4 ()) seed
      in
      check
        Alcotest.(
          list
            (result (list (list int)) string))
        (Printf.sprintf "chaos seed %d" seed)
        mem disk)
    [ 1; 2; 42 ]

(* ---------- multi-domain execution over Disk ---------- *)

let test_domains_differential () =
  let doc = Lazy.force Helpers.pers_1k in
  let serial =
    let db = Database.of_document ~storage:Column_store.mem doc in
    List.map
      (fun text ->
        let t, _, _ = run_one db text in
        Array.map Array.to_list t)
      query_texts
  in
  List.iter
    (fun domains ->
      let pool = Sjos_par.Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Sjos_par.Pool.shutdown pool)
      @@ fun () ->
      let db =
        Database.of_document
          ~storage:(Column_store.disk ~page_size:64 ~pool_pages:8 ())
          doc
      in
      let opts = Query_opts.make ~pool () in
      List.iteri
        (fun i text ->
          let r = Database.run ~opts db (Helpers.pat text) in
          let got =
            Array.map Array.to_list r.Database.exec.Executor.tuples
          in
          check
            Alcotest.(array (list int))
            (Printf.sprintf "domains=%d %s" domains text)
            (List.nth serial i) got)
        query_texts;
      Database.dispose db)
    [ 1; 2; 4 ]

(* ---------- store lifecycle and select accounting ---------- *)

let test_store_lifecycle () =
  let doc = Lazy.force Helpers.tiny_pers in
  let index = Element_index.build doc in
  let config = Column_store.disk ~page_size:64 ~pool_pages:4 () in
  let store = Column_store.create ~config index in
  check cb "is disk" true (Column_store.is_disk store);
  let total = Option.get (Column_store.total_column_bytes store) in
  check cb "column bytes > 0" true (total > 0);
  let c = Column_store.select store (Candidate.of_tag "manager") in
  check ci "manager count" 3 (Cols.length c);
  check cb "equals index columns" true
    (Cols.equal c (Element_index.cols index "manager"));
  check ci "unknown tag is empty" 0
    (Cols.length (Column_store.select store (Candidate.of_tag "zz")));
  Column_store.dispose store;
  Column_store.dispose store;
  check ci "cols still served after dispose" 3
    (Cols.length (Column_store.select store (Candidate.of_tag "manager")))

let test_database_dispose_idempotent () =
  let db =
    Database.of_document
      ~storage:(Column_store.disk ~pool_pages:4 ())
      (Lazy.force Helpers.tiny_pers)
  in
  let pat = Helpers.pat "manager(/employee)" in
  let r1 = Database.run db pat in
  check cb "query ran" true
    (Array.length r1.Database.exec.Executor.tuples > 0);
  Database.dispose db;
  Database.dispose db;
  let r2 = Database.run db pat in
  check_same_tuple_seq "query after dispose" r1.Database.exec.Executor.tuples
    r2.Database.exec.Executor.tuples

let test_mem_store_is_free () =
  let index = Lazy.force Helpers.tiny_index in
  let store = Column_store.create ~config:Column_store.mem index in
  check cb "not disk" false (Column_store.is_disk store);
  Alcotest.(check (option reject)) "no io stats" None
    (Option.map ignore (Column_store.io_stats store));
  Column_store.dispose store;
  check ci "cols still served after dispose" 3
    (Cols.length (Column_store.select store (Candidate.of_tag "manager")))

(* A Disk select charges its tag's four-column scan exactly once:
   employee on pers_1k is 205 rows, 4 pages of 64 items per column. *)
let test_pure_tag_select_charged_once () =
  let index = Lazy.force Helpers.pers_1k_index in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:64 ())
      index
  in
  let spec = Candidate.of_tag "employee" in
  let c, w = Work.measure (fun () -> Column_store.select store spec) in
  check cb "same columns as mem" true
    (Cols.equal c (Candidate.select_cols index spec));
  check ci "one full scan" 16 w.Work.page_touches;
  check ci "pool accesses" 16
    (Option.get (Column_store.io_stats store)).Pager.accesses;
  let _, w = Work.measure (fun () -> Column_store.select_nodes store spec) in
  check ci "select_nodes: one full scan" 16 w.Work.page_touches

let test_config_parsing () =
  check cb "mem parses" true
    (Column_store.backend_of_string "MEM" = Ok Column_store.Mem);
  check cb "disk parses" true
    (Column_store.backend_of_string "disk" = Ok Column_store.Disk);
  check cb "garbage rejected" true
    (Result.is_error (Column_store.backend_of_string "tape"));
  check cb "disk config equal" true
    (Column_store.config_equal
       (Column_store.disk ~page_size:64 ~pool_pages:2 ())
       (Column_store.disk ~page_size:64 ~pool_pages:2 ()));
  check cb "configs differ" false
    (Column_store.config_equal Column_store.mem
       (Column_store.disk ()));
  (match Column_store.disk ~page_size:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "page_size 0 accepted")

(* Per-query storage override resolves through the database's memo — two
   overridden runs share a store, and results match the default. *)
let test_query_opts_storage_override () =
  let doc = Lazy.force Helpers.pers_1k in
  let db = Database.of_document ~storage:Column_store.mem doc in
  let opts =
    Query_opts.make
      ~storage:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      ()
  in
  let text = List.hd query_texts in
  let base = Database.run db (Helpers.pat text) in
  let o1 = Database.run ~opts db (Helpers.pat text) in
  let o2 = Database.run ~opts db (Helpers.pat text) in
  check_same_tuple_seq "override vs default" base.Database.exec.Executor.tuples
    o1.Database.exec.Executor.tuples;
  check_same_tuple_seq "override repeat" o1.Database.exec.Executor.tuples
    o2.Database.exec.Executor.tuples;
  Database.dispose db

(* ---------- golden IO counters ---------- *)

(* The Table 1 queries on their seeded test documents plus the headline
   Mbench pattern, each run on a fresh-pool Disk store at the geometries
   [Golden_io] pins, in a serial pool (LRU decisions depend on access
   order, so the pins are taken without sharding). *)
let golden_io_docs =
  [
    ("pers_1k", Helpers.pers_1k);
    ("dblp_1k", Helpers.dblp_1k);
    ("mbench_1k", Helpers.mbench_1k);
  ]

let golden_io_queries dname =
  let own =
    List.filter_map
      (fun (q : Workload.query) ->
        let d =
          String.lowercase_ascii (Workload.dataset_name q.Workload.dataset)
          ^ "_1k"
        in
        if String.equal d dname then Some (q.Workload.id, q.Workload.pattern)
        else None)
      Workload.queries
  in
  if String.equal dname "mbench_1k" then
    own @ [ (Test_histogram.headline, Helpers.pat Test_histogram.headline) ]
  else own

let io_counters ~opts db pat =
  let store = Database.store db in
  Column_store.reset_io store;
  let w, outcome = Work.scoped (fun () -> Database.run ~opts db pat) in
  (match outcome with Ok _ -> () | Error e -> raise e);
  let s = Option.get (Column_store.io_stats store) in
  [|
    s.Pager.accesses; s.Pager.hits; s.Pager.misses; s.Pager.evictions;
    w.Work.page_touches; w.Work.items_skipped; w.Work.comparisons;
  |]

let golden_io_rows () =
  let serial = Sjos_par.Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Sjos_par.Pool.shutdown serial) @@ fun () ->
  let opts = Query_opts.make ~pool:serial () in
  List.concat_map
    (fun (page_size, pool_pages) ->
      List.concat_map
        (fun (dname, doc) ->
          let db =
            Database.of_document
              ~storage:(Column_store.disk ~page_size ~pool_pages ())
              (Lazy.force doc)
          in
          let rows =
            List.map
              (fun (qid, pat) ->
                (dname, qid, page_size, pool_pages, io_counters ~opts db pat))
              (golden_io_queries dname)
          in
          Database.dispose db;
          rows)
        golden_io_docs)
    Golden_io.geometries

let test_golden_io () =
  let rows = golden_io_rows () in
  check ci "every run has a golden row" (List.length Golden_io.table)
    (List.length rows);
  List.iter2
    (fun (d, qid, page_size, pool_pages, expected) (d', qid', _, _, got) ->
      let msg =
        Printf.sprintf "%s %s page=%d pool=%d" d qid page_size pool_pages
      in
      check Alcotest.string (msg ^ ": row") (d ^ " " ^ qid) (d' ^ " " ^ qid');
      check Alcotest.(array int) msg expected got)
    Golden_io.table rows

let suite =
  [
    Alcotest.test_case "mem vs disk differential (grid)" `Quick
      test_differential;
    Alcotest.test_case "lazy leaves vs rows kernels" `Quick test_leaf_kernel;
    Alcotest.test_case "lazy join misses bounded by full scan" `Quick
      test_leaf_laziness_bounded;
    Alcotest.test_case "legacy kernel reads through disk store" `Quick
      test_legacy_kernel_disk;
    Alcotest.test_case "predicate specs identical across backends" `Quick
      test_predicate_spec_differential;
    Alcotest.test_case "chaos faults backend-independent" `Quick
      test_chaos_differential;
    Alcotest.test_case "multi-domain over disk" `Quick
      test_domains_differential;
    Alcotest.test_case "disk store lifecycle" `Quick test_store_lifecycle;
    Alcotest.test_case "database dispose is idempotent" `Quick
      test_database_dispose_idempotent;
    Alcotest.test_case "mem store is free" `Quick test_mem_store_is_free;
    Alcotest.test_case "pure-tag select charges one scan" `Quick
      test_pure_tag_select_charged_once;
    Alcotest.test_case "config parsing" `Quick test_config_parsing;
    Alcotest.test_case "per-query storage override" `Quick
      test_query_opts_storage_override;
    Alcotest.test_case "golden io counters" `Quick test_golden_io;
  ]
