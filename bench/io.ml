(* Out-of-core IO benchmark for the Disk column store.

   Four deterministic gates:

   1. Differential — every workload query run Mem and Disk must produce
      identical tuples and identical Work counters (per executor run and
      per query) modulo the IO fields (io_items stays equal; only
      page_touches may differ).  Table 2's plan counters must also come
      out exact (520/226/163/69/42/18) — optimizer state is storage-
      independent by construction.
   2. Pool sweep — growing the buffer pool must not increase physical
      page reads (misses at the largest pool <= misses at the smallest)
      on a deep-chain query, and the smallest pool must actually evict.
   3. Skip-ahead savings — on at least one deep-chain pure-tag query the
      lazy-leaf join must fault in strictly fewer pages than the
      full-scan materialization of the same tags' columns.
   4. f_IO grounding — Cost_model.ground_io over the measured run must
      yield a finite positive factor.

   Wall-clock numbers are measured and reported but advisory; the
   perf-history datapoint (bench "io") is scored by deterministic work
   units, so `sjos perf-gate io` compares runs without timing noise.

   Scale defaults to 0.5; SJOS_IO_PAPER=1 additionally loads Mbench at
   the paper's 740k elements under Disk with a pool two orders of
   magnitude below the column bytes and records the run (slow).

   Run with: dune exec bench/main.exe io *)

open Sjos_engine
open Sjos_exec
open Sjos_storage
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json

let scale = Harness.scale ~default:0.5
let paper_run = Sys.getenv_opt "SJOS_IO_PAPER" = Some "1"

let page_size = 256 (* items; 2 KiB pages — small enough to see locality *)

let doc_for ds =
  Harness.doc ~size:(Harness.scaled scale (Workload.default_size ds)) ds

let misses db =
  match Column_store.io_stats (Database.store db) with
  | Some s -> s.Pager.misses
  | None -> 0

let accounted db pattern =
  let t0 = Sjos_obs.Clock.now_ns () in
  let work, outcome = Work.scoped (fun () -> Database.run db pattern) in
  let seconds = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
  match outcome with Ok r -> (work, r, seconds) | Error e -> raise e

(* ---------- gate 1: Mem/Disk differential over the workload ---------- *)

type diff_row = {
  id : string;
  dataset : string;
  nodes : int;
  rows_out : int;
  mem_seconds : float;
  disk_seconds : float;
  disk_work : Work.t;
  page_touches : int;
  disk_misses : int;
  identical : bool;
}

let diff_query (query : Workload.query) =
  let doc = doc_for query.Workload.dataset in
  let db_mem = Database.of_document ~storage:Column_store.mem doc in
  let db_disk =
    Database.of_document
      ~storage:(Column_store.disk ~page_size ~pool_pages:64 ())
      doc
  in
  let wm, rm, mem_seconds = accounted db_mem query.Workload.pattern in
  let wd, rd, disk_seconds = accounted db_disk query.Workload.pattern in
  let identical =
    Harness.tuples_equal rm.Database.exec.Executor.tuples
      rd.Database.exec.Executor.tuples
    && Work.equal_mod_io rm.Database.exec.Executor.work
         rd.Database.exec.Executor.work
    && Work.equal_mod_io wm wd
    && Work.core_score wm = Work.core_score wd
    && wm.Work.io_items = wd.Work.io_items
  in
  let row =
    {
      id = query.Workload.id;
      dataset = Workload.dataset_name query.Workload.dataset;
      nodes = Sjos_xml.Document.size doc;
      rows_out = Array.length rd.Database.exec.Executor.tuples;
      mem_seconds;
      disk_seconds;
      disk_work = wd;
      page_touches = wd.Work.page_touches;
      disk_misses = misses db_disk;
      identical;
    }
  in
  Database.dispose db_disk;
  row

(* ---------- gate 2: buffer-pool sweep ---------- *)

let sweep_pools = [ 2; 8; 32; 256 ]

let sweep_query (query : Workload.query) =
  let doc = doc_for query.Workload.dataset in
  List.map
    (fun pool_pages ->
      let db =
        Database.of_document
          ~storage:(Column_store.disk ~page_size ~pool_pages ())
          doc
      in
      ignore (Database.run db query.Workload.pattern);
      let s = Option.get (Column_store.io_stats (Database.store db)) in
      Database.dispose db;
      (pool_pages, s))
    sweep_pools

(* ---------- gate 3: lazy leaves vs full scan ---------- *)

let pattern_tags pattern =
  Array.to_list (Sjos_pattern.Pattern.labels pattern)
  |> List.filter_map (fun (s : Candidate.spec) ->
         if Candidate.is_pure_tag s then s.Candidate.tag else None)
  |> List.sort_uniq compare

type savings_row = {
  sid : string;
  lazy_misses : int;
  full_misses : int;
  skipped_items : int;
}

(* finer pages here: a skipped run only saves IO once it spans whole
   pages, and the gate should fire at bench scale, not just paper scale *)
let savings_page_size = 64

let savings_query (query : Workload.query) =
  let doc = doc_for query.Workload.dataset in
  let db =
    Database.of_document
      ~storage:
        (Column_store.disk ~page_size:savings_page_size ~pool_pages:4096 ())
      doc
  in
  let store = Database.store db in
  Column_store.reset_io store;
  let run = Database.run db query.Workload.pattern in
  let lazy_misses = misses db in
  Column_store.reset_io store;
  List.iter
    (fun tag -> ignore (Column_store.select store (Candidate.of_tag tag)))
    (pattern_tags query.Workload.pattern);
  let full_misses = misses db in
  Database.dispose db;
  {
    sid = query.Workload.id;
    lazy_misses;
    full_misses;
    skipped_items = run.Database.exec.Executor.work.Work.items_skipped;
  }

(* the deep-chain pure-tag queries: every label is a plain tag test, so
   the columnar engine serves each scan from a lazy leaf *)
let savings_ids =
  [ "Q.DBLP.1.b"; "Q.DBLP.2.c"; "Q.Pers.1.a"; "Q.Pers.3.d"; "Q.Pers.4.d" ]

(* ---------- paper scale (opt-in) ---------- *)

let paper_scale_run () =
  let target = Workload.paper_size Workload.Mbench in
  let t0 = Sjos_obs.Clock.now_ns () in
  let doc = Workload.generate ~size:target Workload.Mbench in
  let gen_seconds = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
  let t1 = Sjos_obs.Clock.now_ns () in
  let db =
    Database.of_document
      ~storage:(Column_store.disk ~pool_pages:64 ()) (* 512 KiB pool *)
      doc
  in
  let load_seconds = Sjos_obs.Clock.elapsed_seconds ~since:t1 in
  let store = Database.store db in
  let pool = Option.get (Column_store.pool_bytes store) in
  let total = Option.get (Column_store.total_column_bytes store) in
  let q = Workload.find "Q.Mbench.1.a" in
  let _, r, query_seconds = accounted db q.Workload.pattern in
  let s = Option.get (Column_store.io_stats store) in
  let out_of_core = pool * 10 < total in
  Database.dispose db;
  ( out_of_core,
    Json.Obj
      [
        ("nodes", Json.Int (Sjos_xml.Document.size doc));
        ("query", Json.Str q.Workload.id);
        ("output_tuples", Json.Int (Array.length r.Database.exec.Executor.tuples));
        ("pool_bytes", Json.Int pool);
        ("total_column_bytes", Json.Int total);
        ("out_of_core", Json.Bool out_of_core);
        ("page_misses", Json.Int s.Pager.misses);
        ("page_accesses", Json.Int s.Pager.accesses);
        ("evictions", Json.Int s.Pager.evictions);
        ("generate_seconds", Json.Float gen_seconds);
        ("load_seconds", Json.Float load_seconds);
        ("query_seconds", Json.Float query_seconds);
      ] )

(* ---------- main ---------- *)

let run () =
  Printf.printf "out-of-core column store: Mem vs Disk (scale %.2f, page %d)\n"
    scale page_size;
  (* gate 1 *)
  let diffs = List.map diff_query Workload.queries in
  Printf.printf "%-14s %-7s %8s %9s %10s %10s %9s %8s\n" "query" "data" "nodes"
    "tuples" "mem(s)" "disk(s)" "touches" "misses";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-7s %8d %9d %10.6f %10.6f %9d %8d%s\n" r.id
        r.dataset r.nodes r.rows_out r.mem_seconds r.disk_seconds
        r.page_touches r.disk_misses
        (if r.identical then "" else "  !! MISMATCH"))
    diffs;
  (* gate 2 *)
  let sweep = sweep_query (Workload.find "Q.Pers.3.d") in
  Printf.printf "pool sweep (Q.Pers.3.d): ";
  List.iter
    (fun (p, (s : Pager.stats)) ->
      Printf.printf "%d pages -> %d misses (%d evictions)  " p s.Pager.misses
        s.Pager.evictions)
    sweep;
  print_newline ();
  let sweep_monotone =
    let _, first = List.hd sweep in
    let _, last = List.nth sweep (List.length sweep - 1) in
    last.Pager.misses <= first.Pager.misses && first.Pager.evictions > 0
  in
  (* gate 3 *)
  let savings = List.map (fun id -> savings_query (Workload.find id)) savings_ids in
  List.iter
    (fun s ->
      Printf.printf "lazy leaves %-12s: %d misses vs %d full-scan (%d skipped)\n"
        s.sid s.lazy_misses s.full_misses s.skipped_items)
    savings;
  let lazy_never_worse =
    List.for_all (fun s -> s.lazy_misses <= s.full_misses) savings
  in
  let skip_ahead_saves =
    List.exists (fun s -> s.lazy_misses < s.full_misses) savings
  in
  (* gate 4: ground f_IO in the run that buffered the most intermediate
     items (io_items > 0 means a Stack-Tree-Anc stage ran); when every
     plan streamed (all-Desc), ground_io returns the default unchanged *)
  let ground_row =
    List.fold_left
      (fun acc r ->
        if r.disk_work.Work.io_items > acc.disk_work.Work.io_items then r
        else acc)
      (List.hd diffs) diffs
  in
  let grounded =
    Sjos_cost.Cost_model.ground_io Sjos_cost.Cost_model.default
      ~page_misses:ground_row.disk_misses
      ~io_items:ground_row.disk_work.Work.io_items
  in
  let f_io_grounded = grounded.Sjos_cost.Cost_model.f_io in
  let grounding_ok = Float.is_finite f_io_grounded && f_io_grounded >= 0. in
  Printf.printf "grounded f_IO from %s: %g (default %g)\n" ground_row.id
    f_io_grounded Sjos_cost.Cost_model.default.Sjos_cost.Cost_model.f_io;
  (* opt-in paper-scale record *)
  let paper =
    if paper_run then (
      Printf.printf "paper-scale Mbench run (740k nodes)...\n%!";
      Some (paper_scale_run ()))
    else None
  in
  let diff_to_json r =
    Json.Obj
      [
        ("id", Json.Str r.id);
        ("dataset", Json.Str r.dataset);
        ("nodes", Json.Int r.nodes);
        ("output_tuples", Json.Int r.rows_out);
        ("mem_seconds", Json.Float r.mem_seconds);
        ("disk_seconds", Json.Float r.disk_seconds);
        ("page_touches", Json.Int r.page_touches);
        ("disk_misses", Json.Int r.disk_misses);
        ("identical", Json.Bool r.identical);
      ]
  in
  let entries =
    List.map
      (fun r ->
        {
          Sjos_obs.Perf_history.entry_id = r.id ^ ":disk";
          work = r.disk_work;
          allocated_bytes = 0.;
          seconds = r.disk_seconds;
        })
      diffs
  in
  let meta =
    [ ("scale", Json.Float scale); ("page_size", Json.Int page_size) ]
  in
  Harness.report ~file:"BENCH_IO.json"
    ~fields:
      (meta
      @ [
          ("queries", Json.List (List.map diff_to_json diffs));
          ( "pool_sweep",
            Json.Obj
              [
                ("query", Json.Str "Q.Pers.3.d");
                ( "points",
                  Json.List
                    (List.map
                       (fun (p, (s : Pager.stats)) ->
                         Json.Obj
                           [
                             ("pool_pages", Json.Int p);
                             ("accesses", Json.Int s.Pager.accesses);
                             ("misses", Json.Int s.Pager.misses);
                             ("evictions", Json.Int s.Pager.evictions);
                           ])
                       sweep) );
              ] );
          ( "skip_ahead",
            Json.List
              (List.map
                 (fun s ->
                   Json.Obj
                     [
                       ("id", Json.Str s.sid);
                       ("lazy_misses", Json.Int s.lazy_misses);
                       ("full_scan_misses", Json.Int s.full_misses);
                       ("skipped_items", Json.Int s.skipped_items);
                     ])
                 savings) );
          ( "grounding",
            Json.Obj
              [
                ("query", Json.Str ground_row.id);
                ("page_misses", Json.Int ground_row.disk_misses);
                ("io_items", Json.Int ground_row.disk_work.Work.io_items);
                ("f_io", Json.Float f_io_grounded);
              ] );
          ("paper", match paper with Some (_, j) -> j | None -> Json.Null);
        ])
    ~history:(meta, entries)
    ([
       ( "identical_outputs_and_work",
         List.for_all (fun r -> r.identical) diffs );
       ("table2_exact", Harness.table2_exact ());
       ("pool_sweep_monotone", sweep_monotone);
       ("lazy_never_worse", lazy_never_worse);
       ("skip_ahead_saves_misses", skip_ahead_saves);
       ("f_io_grounded", grounding_ok);
       ( "nonempty_work",
         diffs <> [] && savings <> []
         && List.for_all
              (fun r ->
                r.rows_out > 0 && r.page_touches >= 0 && r.disk_misses >= 0)
              diffs );
     ]
    @
    match paper with
    | Some (ok, _) -> [ ("paper_out_of_core", ok) ]
    | None -> [])
