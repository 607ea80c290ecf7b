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
  ignore (Column_store.cols store "manager");
  ignore (Column_store.cols store "employee");
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

(* ---------- store lifecycle and file format ---------- *)

let test_store_lifecycle () =
  let doc = Lazy.force Helpers.tiny_pers in
  let index = Element_index.build doc in
  let config = Column_store.disk ~page_size:64 ~pool_pages:4 () in
  let store = Column_store.create ~config index in
  let path = Option.get (Column_store.data_file store) in
  check cb "data file exists" true (Sys.file_exists path);
  check cb "is disk" true (Column_store.is_disk store);
  let total = Option.get (Column_store.total_column_bytes store) in
  check cb "column bytes > 0" true (total > 0);
  let c = Column_store.cols store "manager" in
  check ci "manager count" 3 (Cols.length c);
  check cb "equals index columns" true
    (Cols.equal c (Element_index.cols index "manager"));
  check ci "unknown tag is empty" 0 (Cols.length (Column_store.cols store "zz"));
  Column_store.dispose store;
  check cb "data file removed" false (Sys.file_exists path);
  Column_store.dispose store (* idempotent *)

(* The at_exit ordering fix: disk stores must dispose in the [`Dispose]
   stage, strictly before any [`Shutdown] hook (the domain pool's
   teardown), regardless of registration order. *)
let test_lifecycle_ordering () =
  Sjos_obs.Lifecycle.with_isolated @@ fun () ->
  let order = ref [] in
  let note tag () = order := tag :: !order in
  (* register shutdown FIRST: plain at_exit would run it last anyway,
     but a later dispose registration would then precede it — the
     interleaving this module exists to forbid *)
  Sjos_obs.Lifecycle.on_exit `Shutdown (note "shutdown");
  Sjos_obs.Lifecycle.on_exit `Dispose (note "dispose-a");
  Sjos_obs.Lifecycle.on_exit `Dispose (note "dispose-b");
  Sjos_obs.Lifecycle.run_now ();
  check
    Alcotest.(list string)
    "dispose stage first, registration order within a stage"
    [ "dispose-a"; "dispose-b"; "shutdown" ]
    (List.rev !order);
  Sjos_obs.Lifecycle.run_now ();
  check ci "hooks run at most once" 3 (List.length !order)

let test_lifecycle_disposes_store_before_shutdown () =
  Sjos_obs.Lifecycle.with_isolated @@ fun () ->
  let doc = Lazy.force Helpers.tiny_pers in
  let index = Element_index.build doc in
  let file_at_shutdown = ref true in
  let store =
    Column_store.create ~config:(Column_store.disk ~pool_pages:4 ()) index
  in
  let path = Option.get (Column_store.data_file store) in
  (* the store registered its own `Dispose hook at creation; this
     shutdown hook must observe the file already gone *)
  Sjos_obs.Lifecycle.on_exit `Shutdown (fun () ->
      file_at_shutdown := Sys.file_exists path);
  check cb "data file exists before exit hooks" true (Sys.file_exists path);
  Sjos_obs.Lifecycle.run_now ();
  check cb "column file removed before the shutdown stage ran" false
    !file_at_shutdown;
  Column_store.dispose store (* idempotent after the hook disposed it *)

let test_database_dispose_idempotent () =
  let db =
    Database.of_document
      ~storage:(Column_store.disk ~pool_pages:4 ())
      (Lazy.force Helpers.tiny_pers)
  in
  let path = Option.get (Column_store.data_file (Database.store db)) in
  let r1 = Database.run db (Helpers.pat "manager(/employee)") in
  check cb "query ran" true
    (Array.length r1.Database.exec.Executor.tuples > 0);
  Database.dispose db;
  check cb "file removed" false (Sys.file_exists path);
  Database.dispose db;
  (* double dispose is a no-op *)
  Database.dispose db

let test_mem_store_is_free () =
  let index = Lazy.force Helpers.tiny_index in
  let store = Column_store.create ~config:Column_store.mem index in
  check cb "not disk" false (Column_store.is_disk store);
  Alcotest.(check (option reject)) "no io stats" None
    (Option.map ignore (Column_store.io_stats store));
  Alcotest.(check (option reject)) "no data file" None
    (Option.map ignore (Column_store.data_file store));
  Column_store.dispose store;
  check ci "cols still served after dispose" 3
    (Cols.length (Column_store.cols store "manager"))

let test_truncated_file_fails_loudly () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      index
  in
  Fun.protect ~finally:(fun () -> Column_store.dispose store)
  @@ fun () ->
  let path = Option.get (Column_store.data_file store) in
  (* chop the file: every unread page is now missing *)
  let oc = open_out_gen [ Open_trunc; Open_binary ] 0o600 path in
  close_out oc;
  match Column_store.cols store "manager" with
  | _ -> Alcotest.fail "truncated column file served data"
  | exception _ -> ()

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
    Alcotest.test_case "exit hooks: dispose stage before shutdown" `Quick
      test_lifecycle_ordering;
    Alcotest.test_case "exit hooks: store file gone before shutdown stage"
      `Quick test_lifecycle_disposes_store_before_shutdown;
    Alcotest.test_case "database dispose is idempotent" `Quick
      test_database_dispose_idempotent;
    Alcotest.test_case "mem store is free" `Quick test_mem_store_is_free;
    Alcotest.test_case "truncated column file fails loudly" `Quick
      test_truncated_file_fails_loudly;
    Alcotest.test_case "config parsing" `Quick test_config_parsing;
    Alcotest.test_case "per-query storage override" `Quick
      test_query_opts_storage_override;
  ]
