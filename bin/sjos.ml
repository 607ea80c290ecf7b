(* sjos — structural join order selection, command-line front end.

   Subcommands:
     gen       generate a synthetic data set as XML
     stats     print statistics for an XML file
     query     optimize + execute a pattern against an XML file
     explain   print the chosen plan without executing it
     analyze   EXPLAIN ANALYZE: execute and compare estimates vs. actuals
     table1/2/3, fig7, fig8   regenerate the paper's experiments *)

open Cmdliner
open Sjos_engine

let dataset_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "mbench" -> Ok Workload.Mbench
    | "dblp" -> Ok Workload.Dblp
    | "pers" -> Ok Workload.Pers
    | _ -> Error (`Msg "expected mbench, dblp or pers")
  in
  Arg.conv (parse, fun ppf ds -> Fmt.string ppf (Workload.dataset_name ds))

let algorithm_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "dp" -> Ok Sjos_core.Optimizer.Dp
    | "dpp" -> Ok Sjos_core.Optimizer.Dpp
    | "dpp-nl" | "dpp'" -> Ok Sjos_core.Optimizer.Dpp_no_lookahead
    | "dpap-ld" | "ld" -> Ok Sjos_core.Optimizer.Dpap_ld
    | "fp" -> Ok Sjos_core.Optimizer.Fp
    | "bigdp" -> Ok (Sjos_core.Optimizer.Big_dp Sjos_core.Bigdp.default_width)
    | s when String.length s > 8 && String.sub s 0 8 = "dpap-eb:" -> (
        match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
        | Some te when te > 0 -> Ok (Sjos_core.Optimizer.Dpap_eb te)
        | _ -> Error (`Msg "expected dpap-eb:<positive Te>"))
    | s when String.length s > 6 && String.sub s 0 6 = "bigdp:" -> (
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some w when w > 0 -> Ok (Sjos_core.Optimizer.Big_dp w)
        | _ -> Error (`Msg "expected bigdp:<positive layer width>"))
    | _ ->
        Error
          (`Msg
             "expected dp, dpp, dpp-nl, dpap-eb:<Te>, dpap-ld, fp or \
              bigdp[:<width>]")
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Sjos_core.Optimizer.name a))

let engine_conv =
  let parse s =
    match Sjos_core.Optimizer.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg "expected binary, holistic or auto")
  in
  Arg.conv (parse, fun ppf e -> Fmt.string ppf (Sjos_core.Optimizer.engine_name e))

let engine_opt =
  Arg.(
    value
    & opt engine_conv Sjos_core.Optimizer.Binary
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Physical algebra: binary Stack-Tree plans (default), the holistic \
           TwigStack operator, or auto (cost-based choice per query).")

let pattern_arg =
  let doc =
    "Query pattern, e.g. 'manager(//employee(/name))'.  '/' is parent-child, \
     '//' ancestor-descendant; labels allow [@attr='v'] and [.='text'] \
     predicates and an optional trailing 'order by <Node>'."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATTERN" ~doc)

let file_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"FILE" ~doc:"XML document to query.")

let algo_opt =
  Arg.(
    value
    & opt algorithm_conv Sjos_core.Optimizer.Dpp
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:
          "Optimizer: dp, dpp (default), dpp-nl, dpap-eb:<Te>, dpap-ld, fp or \
           bigdp[:<width>] (the width-capped large-pattern beam).  Exact \
           searches switch to the exact subset DP past 7 nodes and to the \
           beam past 16.")

let xpath_flag =
  Arg.(
    value & flag
    & info [ "x"; "xpath" ]
        ~doc:
          "Interpret PATTERN as an XPath expression (e.g. \
           '//manager[.//department]/employee') instead of the native \
           pattern syntax.")

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record optimizer and executor spans.  Prints the span tree after \
           the run (or embeds it under \"trace\" with $(b,--json)).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit a machine-readable JSON report instead of the human table.")

let trace_out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the recorded spans as a Chrome trace-event JSON file (one \
           track per domain; open it in Perfetto or chrome://tracing).  \
           Implies span recording even without $(b,--trace).")

let with_obs ~trace ?trace_out f =
  let tracing = trace || trace_out <> None in
  if tracing then Sjos_obs.Report.enable_all ();
  let r = f () in
  let report = if trace then Some (Sjos_obs.Report.to_json ()) else None in
  Option.iter
    (fun path ->
      Sjos_obs.Report.write_file path (Sjos_obs.Trace.to_chrome_json ());
      Fmt.epr "sjos: wrote Chrome trace to %s@." path)
    trace_out;
  if tracing then Sjos_obs.Report.disable_all ();
  (r, report)

(* ---------- error boundary ----------

   Every failure class exits with its own code (see
   [Sjos_guard.Error.exit_code]) and a one-line message on stderr —
   no backtraces for user errors. *)

let die e =
  Fmt.epr "sjos: %s: %s@."
    (Sjos_guard.Error.class_name e)
    (Sjos_guard.Error.message e);
  exit (Sjos_guard.Error.exit_code e)

let guarded f =
  try f () with
  | Sjos_guard.Error.Error e -> die e
  | Sjos_guard.Budget.Exhausted { resource; during } ->
      die (Sjos_guard.Error.Budget_exhausted { resource; during })
  | Sjos_xml.Parser.Parse_error { line; col; message } ->
      die
        (Sjos_guard.Error.Parse_error
           {
             input = "xml";
             message = Printf.sprintf "line %d, col %d: %s" line col message;
           })
  | Invalid_argument msg -> die (Sjos_guard.Error.Invalid_request msg)

let parse_pattern ~xpath s =
  let result =
    if xpath then Result.map fst (Sjos_pattern.Xpath.compile_opt s)
    else Sjos_pattern.Parse.pattern_opt s
  in
  match result with
  | Ok p -> p
  | Error msg ->
      Sjos_guard.Error.fail
        (Sjos_guard.Error.Parse_error { input = s; message = msg })

(* ---------- budget flags ---------- *)

let deadline_opt =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Give the query MS milliseconds of wall-clock budget.  An exact \
           optimizer search that exceeds it degrades to DPAP-EB; execution \
           past the deadline aborts with exit code 5.")

let max_expanded_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-expanded" ] ~docv:"N"
        ~doc:
          "Budget the optimizer search to at most N status expansions \
           (exact searches degrade to DPAP-EB when the ceiling fires).")

let budget_of deadline_ms max_expanded =
  Sjos_guard.Budget.make ?deadline_ms ?max_expanded ()

let warn_degraded (opt : Sjos_core.Optimizer.result) =
  match opt.Sjos_core.Optimizer.degraded_from with
  | Some a ->
      Fmt.epr "sjos: note: optimizer budget exhausted during %s; plan from \
               %s fallback@."
        (Sjos_core.Optimizer.name a)
        (Sjos_core.Optimizer.name opt.Sjos_core.Optimizer.algorithm)
  | None -> ()

(* ---------- gen ---------- *)

let gen_cmd =
  let run dataset size output =
    let doc = Workload.generate ~size dataset in
    (match output with
    | Some path -> Sjos_xml.Serializer.to_file path doc
    | None -> print_string (Sjos_xml.Serializer.to_string doc));
    Fmt.epr "generated %d nodes (%s)@." (Sjos_xml.Document.size doc)
      (Workload.dataset_name dataset)
  in
  let dataset =
    Arg.(
      required
      & pos 0 (some dataset_conv) None
      & info [] ~docv:"DATASET" ~doc:"mbench, dblp or pers.")
  in
  let size =
    Arg.(
      value & opt int 10_000
      & info [ "n"; "size" ] ~docv:"NODES" ~doc:"Approximate element count.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic data set as XML")
    Term.(const run $ dataset $ size $ output)

(* ---------- stats ---------- *)

let stats_cmd =
  let run file =
    guarded @@ fun () ->
    let db = Database.load_file file in
    Fmt.pr "%a@." Sjos_storage.Stats.pp (Database.stats db);
    Fmt.pr "@.top tags:@.";
    List.iteri
      (fun i (tag, count) ->
        if i < 15 then Fmt.pr "  %-20s %d@." tag count)
      (Database.stats db).Sjos_storage.Stats.tag_counts
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML file.")
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print document statistics") Term.(const run $ file)

(* ---------- query ---------- *)

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Bypass the plan cache: always run a fresh optimizer search.")

let grid_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "grid" ] ~docv:"G"
        ~doc:
          "Per-query positional-histogram grid override (1-4096; out of \
           range is rejected with exit code 3).")

let backend_conv =
  Arg.conv
    ( (fun s ->
        match Sjos_storage.Column_store.backend_of_string s with
        | Ok b -> Ok b
        | Error m -> Error (`Msg m)),
      fun ppf b -> Fmt.string ppf (Sjos_storage.Column_store.backend_name b) )

let storage_backend_opt =
  Arg.(
    value
    & opt (some backend_conv) None
    & info [ "storage" ] ~docv:"BACKEND"
        ~doc:
          "Column storage backend: 'mem' (resident candidate columns, no \
           page accounting) or 'disk' (page accounting over the same \
           resident columns: every read is charged through an LRU buffer \
           pool as page hits and misses; queries touch only the pages \
           their joins examine).  Defaults to the SJOS_STORAGE environment \
           variable, or mem.")

let pool_pages_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "pool-pages" ] ~docv:"N"
        ~doc:
          "Buffer-pool capacity in pages for $(b,--storage disk) (default            256).")

let page_size_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "page-size" ] ~docv:"N"
        ~doc:
          "Page size in items (8-byte ints) for $(b,--storage disk) (default            1024, i.e. 8 KiB pages).")

let storage_config backend pool_pages page_size =
  match backend with
  | None -> None
  | Some Sjos_storage.Column_store.Mem -> Some Sjos_storage.Column_store.mem
  | Some Sjos_storage.Column_store.Disk ->
      Some (Sjos_storage.Column_store.disk ?page_size ?pool_pages ())

let io_stats_json db =
  match Sjos_storage.Column_store.io_stats (Database.store db) with
  | None -> Sjos_obs.Json.Null
  | Some s ->
      Sjos_obs.Json.Obj
        [
          ("accesses", Sjos_obs.Json.Int s.Sjos_storage.Pager.accesses);
          ("hits", Sjos_obs.Json.Int s.Sjos_storage.Pager.hits);
          ("misses", Sjos_obs.Json.Int s.Sjos_storage.Pager.misses);
          ("evictions", Sjos_obs.Json.Int s.Sjos_storage.Pager.evictions);
        ]

let print_io_stats db =
  match Sjos_storage.Column_store.io_stats (Database.store db) with
  | None -> ()
  | Some s ->
      Fmt.pr "io: %d page accesses, %d hits, %d misses, %d evictions@."
        s.Sjos_storage.Pager.accesses s.Sjos_storage.Pager.hits
        s.Sjos_storage.Pager.misses s.Sjos_storage.Pager.evictions

let domains_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run the join kernels on a pool of N domains (results are \
           bit-identical to serial).  Defaults to the SJOS_DOMAINS \
           environment variable, or 1.")

let query_cmd =
  let run pattern file algorithm engine limit show xpath trace trace_out json
      no_cache deadline_ms max_expanded grid domains storage pool_pages
      page_size =
    guarded @@ fun () ->
    let db =
      Database.load_file
        ?storage:(storage_config storage pool_pages page_size)
        file
    in
    let p = parse_pattern ~xpath pattern in
    let pool = Option.map (fun n -> Sjos_par.Pool.create ~domains:n ()) domains in
    Fun.protect ~finally:(fun () -> Option.iter Sjos_par.Pool.shutdown pool)
    @@ fun () ->
    let opts =
      Query_opts.make ~algorithm ~engine ?max_tuples:limit
        ~use_cache:(not no_cache)
        ~budget:(budget_of deadline_ms max_expanded)
        ?grid ?pool ()
    in
    let (prep, run), report =
      with_obs ~trace ?trace_out (fun () ->
          let prep = Database.prepare ~opts db p in
          (prep, Database.exec prep))
    in
    warn_degraded run.Database.opt;
    let tuples = run.Database.exec.Sjos_exec.Executor.tuples in
    if json then begin
      let open Sjos_obs.Json in
      let fields =
        [
          ("pattern", Str pattern);
          ("fingerprint", Str (Database.prepared_fingerprint prep));
          ("plan_cached", Bool (Database.prepared_from_cache prep));
          ("matches", Int (Array.length tuples));
          ( "exec_seconds",
            Float run.Database.exec.Sjos_exec.Executor.seconds );
          ( "optimizer",
            Sjos_core.Optimizer.result_to_json p run.Database.opt );
          ( "metrics",
            Sjos_obs.Work.to_json run.Database.exec.Sjos_exec.Executor.work );
          ("io", io_stats_json db);
        ]
      in
      let fields =
        match report with
        | Some r -> fields @ [ ("observability", r) ]
        | None -> fields
      in
      print_endline (to_string_pretty (Obj fields))
    end
    else begin
      Fmt.pr
        "%d matches in %.2f ms (optimization %.2f ms, %d plans considered, \
         fp %s)@."
        (Array.length tuples)
        (run.Database.exec.Sjos_exec.Executor.seconds *. 1000.)
        (run.Database.opt.Sjos_core.Optimizer.opt_seconds *. 1000.)
        run.Database.opt.Sjos_core.Optimizer.plans_considered
        (Sjos_pattern.Fingerprint.short (Database.prepared_fingerprint prep));
      Fmt.pr "execution: %a@." Sjos_obs.Work.pp
        run.Database.exec.Sjos_exec.Executor.work;
      let doc = Database.document db in
      Array.iteri
        (fun i tuple ->
          if i < show then begin
            let parts =
              List.init (Sjos_pattern.Pattern.node_count p) (fun slot ->
                  let n =
                    Sjos_xml.Document.node doc (Sjos_exec.Tuple.get tuple slot)
                  in
                  Fmt.str "%s=%a" (Sjos_pattern.Pattern.name p slot)
                    Sjos_xml.Node.pp n)
            in
            Fmt.pr "  %s@." (String.concat " " parts)
          end)
        tuples;
      if Array.length tuples > show then
        Fmt.pr "  ... (%d more; raise --show)@." (Array.length tuples - show);
      print_io_stats db;
      if trace then Fmt.pr "@.%s@." (Sjos_obs.Report.to_string ())
    end
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tuples" ] ~docv:"N"
          ~doc:"Abort if an intermediate result exceeds N tuples.")
  in
  let show =
    Arg.(
      value & opt int 10
      & info [ "show" ] ~docv:"N" ~doc:"Print at most N matches (default 10).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Optimize and execute a pattern query")
    Term.(
      const run $ pattern_arg $ file_arg $ algo_opt $ engine_opt $ limit $ show
      $ xpath_flag $ trace_flag $ trace_out_opt $ json_flag $ no_cache_flag
      $ deadline_opt $ max_expanded_opt $ grid_opt $ domains_opt
      $ storage_backend_opt $ pool_pages_opt $ page_size_opt)

(* ---------- explain ---------- *)

let explain_cmd =
  let run pattern file algorithm engine xpath =
    guarded @@ fun () ->
    let db = Database.load_file file in
    let p = parse_pattern ~xpath pattern in
    let opts = Query_opts.make ~algorithm ~engine () in
    Fmt.pr "%s@." (Database.explain_prepared (Database.prepare ~opts db p))
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the plan the optimizer picks")
    Term.(
      const run $ pattern_arg $ file_arg $ algo_opt $ engine_opt $ xpath_flag)

(* ---------- analyze ---------- *)

let analyze_cmd =
  let run pattern file algorithm engine limit xpath trace trace_out json
      deadline_ms max_expanded storage pool_pages page_size =
    guarded @@ fun () ->
    let db =
      Database.load_file
        ?storage:(storage_config storage pool_pages page_size)
        file
    in
    let p = parse_pattern ~xpath pattern in
    let opts =
      Query_opts.make ~algorithm ~engine ?max_tuples:limit
        ~budget:(budget_of deadline_ms max_expanded)
        ()
    in
    let a, report =
      with_obs ~trace ?trace_out (fun () ->
          Database.analyze_prepared (Database.prepare ~opts db p))
    in
    warn_degraded a.Database.opt;
    let exec = a.Database.exec in
    if json then begin
      let open Sjos_obs.Json in
      let fields =
        [
          ("pattern", Str pattern);
          ("matches", Int (Array.length exec.Sjos_exec.Executor.tuples));
          ("exec_seconds", Float exec.Sjos_exec.Executor.seconds);
          ("optimizer", Sjos_core.Optimizer.result_to_json p a.Database.opt);
          ("operators", Sjos_plan.Explain.analysis_to_json p a.Database.rows);
          ("metrics", Sjos_obs.Work.to_json exec.Sjos_exec.Executor.work);
          ("io", io_stats_json db);
        ]
      in
      let fields =
        match report with
        | Some r -> fields @ [ ("observability", r) ]
        | None -> fields
      in
      print_endline (to_string_pretty (Obj fields))
    end
    else begin
      Fmt.pr "%s@." (Sjos_plan.Explain.analyze_to_string p a.Database.rows);
      Fmt.pr
        "%d matches in %.2f ms (optimization %.2f ms, %s, %d plans \
         considered, est cost %.1f, actual cost %.1f)@."
        (Array.length exec.Sjos_exec.Executor.tuples)
        (exec.Sjos_exec.Executor.seconds *. 1000.)
        (a.Database.opt.Sjos_core.Optimizer.opt_seconds *. 1000.)
        (Sjos_core.Optimizer.name algorithm)
        a.Database.opt.Sjos_core.Optimizer.plans_considered
        a.Database.opt.Sjos_core.Optimizer.est_cost
        exec.Sjos_exec.Executor.cost_units;
      print_io_stats db;
      if trace then Fmt.pr "@.%s@." (Sjos_obs.Report.to_string ())
    end
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tuples" ] ~docv:"N"
          ~doc:"Abort if an intermediate result exceeds N tuples.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "EXPLAIN ANALYZE: execute the chosen plan and print a per-operator \
          table of estimated vs. actual cardinality, cost units and wall \
          time")
    Term.(
      const run $ pattern_arg $ file_arg $ algo_opt $ engine_opt $ limit
      $ xpath_flag $ trace_flag $ trace_out_opt $ json_flag $ deadline_opt
      $ max_expanded_opt $ storage_backend_opt $ pool_pages_opt
      $ page_size_opt)

(* ---------- repl ---------- *)

let repl_cmd =
  let run file algorithm no_cache xpath deadline_ms max_expanded =
    guarded @@ fun () ->
    let db = Database.load_file file in
    (* the deadline is re-armed per query line, not for the whole session *)
    let opts_for () =
      Query_opts.make ~algorithm ~use_cache:(not no_cache)
        ~budget:(budget_of deadline_ms max_expanded)
        ()
    in
    Fmt.pr "loaded %s: %d nodes, algorithm %s, plan cache %s@." file
      (Sjos_xml.Document.size (Database.document db))
      (Sjos_core.Optimizer.name algorithm)
      (if no_cache then "off" else "on");
    Fmt.pr "enter a pattern per line; :stats shows the cache, :quit exits@.";
    let run_line line =
      let parsed =
        if xpath then Result.map fst (Sjos_pattern.Xpath.compile_opt line)
        else Sjos_pattern.Parse.pattern_opt line
      in
      match parsed with
      | Error msg -> Fmt.pr "error: %s@." msg
      | Ok p -> (
          match
            Sjos_guard.Error.protect (fun () ->
                let prep = Database.prepare ~opts:(opts_for ()) db p in
                (prep, Database.exec prep))
          with
          | Ok (prep, run) ->
              warn_degraded run.Database.opt;
              Fmt.pr "%d matches  opt %.3f ms (%s, fp %s)  exec %.3f ms@."
                (Array.length run.Database.exec.Sjos_exec.Executor.tuples)
                (run.Database.opt.Sjos_core.Optimizer.opt_seconds *. 1000.)
                (if Database.prepared_from_cache prep then "cache hit"
                 else "cache miss")
                (Sjos_pattern.Fingerprint.short
                   (Database.prepared_fingerprint prep))
                (run.Database.exec.Sjos_exec.Executor.seconds *. 1000.)
          | Error e ->
              Fmt.pr "error (%s): %s@."
                (Sjos_guard.Error.class_name e)
                (Sjos_guard.Error.message e))
    in
    let rec loop () =
      Fmt.pr "sjos> %!";
      match input_line stdin with
      | exception End_of_file -> ()
      | ":quit" | ":q" -> ()
      | ":stats" ->
          Fmt.pr "%a@." Sjos_cache.Plan_cache.pp (Database.plan_cache db);
          loop ()
      | "" -> loop ()
      | line ->
          run_line (String.trim line);
          loop ()
    in
    loop ();
    Fmt.pr "%a@." Sjos_cache.Plan_cache.pp (Database.plan_cache db)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"XML document to query.")
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Interactive query loop over one document.  Repeated patterns (and \
          structurally identical renumberings) hit the plan cache and skip \
          optimization; :stats prints hit/miss counters.")
    Term.(
      const run $ file $ algo_opt $ no_cache_flag $ xpath_flag $ deadline_opt
      $ max_expanded_opt)

(* ---------- metrics ---------- *)

let metrics_cmd =
  let run pattern file algorithm xpath no_cache domains storage pool_pages
      page_size =
    guarded @@ fun () ->
    let db =
      Database.load_file
        ?storage:(storage_config storage pool_pages page_size)
        file
    in
    let p = parse_pattern ~xpath pattern in
    let pool = Option.map (fun n -> Sjos_par.Pool.create ~domains:n ()) domains in
    Fun.protect ~finally:(fun () -> Option.iter Sjos_par.Pool.shutdown pool)
    @@ fun () ->
    let opts = Query_opts.make ~algorithm ~use_cache:(not no_cache) ?pool () in
    Sjos_obs.Registry.set_enabled true;
    (* run under a scoped accumulator so the dumped work counters are
       exactly this query's, not process-lifetime totals *)
    let work, outcome =
      Sjos_obs.Work.scoped (fun () ->
          Database.exec (Database.prepare ~opts db p))
    in
    let run = match outcome with Ok r -> r | Error e -> raise e in
    Sjos_obs.Registry.set_enabled false;
    let open Sjos_obs.Json in
    (* the snapshot body is the same shape the serve protocol's [metrics]
       endpoint returns (Sjos_serve.Snapshot) — one schema for both *)
    print_endline
      (to_string_pretty
         (Obj
            (( "pattern", Str pattern )
            :: ( "matches",
                 Int (Array.length run.Database.exec.Sjos_exec.Executor.tuples)
               )
            :: Sjos_serve.Snapshot.fields ~work ~io:(io_stats_json db) ())))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Execute a pattern and dump the full observability snapshot as \
          JSON: the query's deterministic work counters, GC totals and \
          every registry instrument.  Same shape as the serve protocol's \
          metrics endpoint.")
    Term.(
      const run $ pattern_arg $ file_arg $ algo_opt $ xpath_flag
      $ no_cache_flag $ domains_opt $ storage_backend_opt $ pool_pages_opt
      $ page_size_opt)

(* ---------- perf-gate ---------- *)

let perf_gate_cmd =
  let run dir bench work_tol alloc_tol =
    match
      Sjos_obs.Perf_history.gate ?work_tolerance:work_tol
        ?alloc_tolerance:alloc_tol ~dir ~bench ()
    with
    | Sjos_obs.Perf_history.Pass msg ->
        Fmt.pr "perf-gate %s: PASS — %s@." bench msg
    | Sjos_obs.Perf_history.Bootstrap msg ->
        Fmt.pr "perf-gate %s: BOOTSTRAP — %s@." bench msg
    | Sjos_obs.Perf_history.Fail msgs ->
        List.iter (fun m -> Fmt.epr "perf-gate %s: FAIL — %s@." bench m) msgs;
        exit 1
  in
  let dir =
    Arg.(
      value & opt string "results"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Perf-history directory (default: results).")
  in
  let bench =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Store key, e.g. perf or par.")
  in
  let work_tol =
    Arg.(
      value
      & opt (some float) None
      & info [ "work-tol" ] ~docv:"FRAC"
          ~doc:"Work-score tolerance as a fraction (default 0.01).")
  in
  let alloc_tol =
    Arg.(
      value
      & opt (some float) None
      & info [ "alloc-tol" ] ~docv:"FRAC"
          ~doc:"Allocation tolerance as a fraction (default 0.10).")
  in
  Cmd.v
    (Cmd.info "perf-gate"
       ~doc:
         "Compare the two newest datapoints of a perf-history store; exit 1 \
          when deterministic work units or allocation regressed beyond \
          tolerance.  Wall-clock is never gated.")
    Term.(const run $ dir $ bench $ work_tol $ alloc_tol)

(* ---------- serve ---------- *)

let socket_opt =
  Arg.(
    value
    & opt string "/tmp/sjos.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default /tmp/sjos.sock).")

let file_arg_pos0 =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"XML document to serve.")

let serve_cmd =
  let run file socket tenants_file max_active max_queue deadline_ms domains
      storage pool_pages page_size =
    guarded @@ fun () ->
    let db =
      Database.load_file
        ?storage:(storage_config storage pool_pages page_size)
        file
    in
    let tenants =
      match tenants_file with
      | None -> Sjos_serve.Tenant.registry []
      | Some path -> (
          let text = In_channel.with_open_bin path In_channel.input_all in
          match
            Result.bind (Sjos_obs.Json.of_string text)
              (Sjos_serve.Tenant.registry_of_json ?default:None)
          with
          | Ok r -> r
          | Error msg ->
              Sjos_guard.Error.fail
                (Sjos_guard.Error.Invalid_request
                   (Printf.sprintf "tenant config %s: %s" path msg)))
    in
    let pool = Option.map (fun n -> Sjos_par.Pool.create ~domains:n ()) domains in
    Fun.protect ~finally:(fun () -> Option.iter Sjos_par.Pool.shutdown pool)
    @@ fun () ->
    Database.warm db;
    Sjos_obs.Registry.set_enabled true;
    let config =
      {
        Sjos_serve.Server.default_config with
        max_active;
        max_queue;
        default_deadline_ms = deadline_ms;
      }
    in
    let srv = Sjos_serve.Server.create ~config ~tenants ?pool db in
    (* async-signal-safe: the handler only flips an atomic flag *)
    let drain _ = Sjos_serve.Server.initiate_drain srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Fmt.epr "sjos serve: listening on %s (max_active=%d max_queue=%d)@."
      socket max_active max_queue;
    Sjos_serve.Server.run srv ~socket_path:socket
  in
  let tenants_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "tenants" ] ~docv:"FILE"
          ~doc:
            "Tenant quota configuration: {\"default\": {..}, \"tenants\": \
             {\"name\": {\"max_concurrent\": n, \"rate_per_sec\": r, \
             \"burst\": b, \"max_tuples\": n, \"deadline_ms\": ms, \
             \"chaos_seed\": n, \"chaos_faults\": [..], \"stall_ms\": ms}}}.")
  in
  let max_active_opt =
    Arg.(
      value & opt int 4
      & info [ "max-active" ] ~docv:"N"
          ~doc:"Concurrently executing queries (default 4).")
  in
  let max_queue_opt =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission queue depth beyond the active set; further requests \
             are shed with a structured 'overloaded' error (default 16).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived multi-tenant query server on a Unix-domain \
          socket (length-prefixed JSON protocol: health, metrics, prepare, \
          exec, explain, analyze).  SIGTERM/SIGINT drain: in-flight \
          queries finish, queued ones shed, then the process exits.")
    Term.(
      const run $ file_arg_pos0 $ socket_opt $ tenants_opt $ max_active_opt
      $ max_queue_opt $ deadline_opt $ domains_opt $ storage_backend_opt
      $ pool_pages_opt $ page_size_opt)

let client_cmd =
  let run socket op pattern xpath algorithm tenant name limit deadline_ms
      include_tuples =
    guarded @@ fun () ->
    let open Sjos_obs.Json in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       Sjos_guard.Error.fail
         (Sjos_guard.Error.Invalid_request
            (Printf.sprintf "cannot connect to %s: %s" socket
               (Unix.error_message e))));
    let opt_field k v f = match v with None -> [] | Some x -> [ (k, f x) ] in
    let req =
      Obj
        ([ ("op", Str op); ("id", Int 1) ]
        @ opt_field "pattern" pattern (fun s -> Str s)
        @ (if xpath then [ ("xpath", Bool true) ] else [])
        @ opt_field "algorithm" algorithm (fun s -> Str s)
        @ opt_field "tenant" tenant (fun s -> Str s)
        @ opt_field "name" name (fun s -> Str s)
        @ opt_field "limit" limit (fun n -> Int n)
        @ opt_field "deadline_ms" deadline_ms (fun f -> Float f)
        @ if include_tuples then [ ("include_tuples", Bool true) ] else [])
    in
    Sjos_serve.Wire.write_frame fd req;
    match Sjos_serve.Wire.read_frame fd with
    | Sjos_serve.Wire.Frame resp -> (
        print_endline (to_string_pretty resp);
        match member "ok" resp with
        | Some (Bool true) -> ()
        | _ ->
            (* exit exactly as the local CLI would for this error class *)
            let code =
              Option.bind (member "error" resp) (member "class")
              |> function
              | Some (Str c) ->
                  Option.value
                    (Sjos_guard.Error.exit_code_of_class c)
                    ~default:8
              | _ -> 8
            in
            exit code)
    | Sjos_serve.Wire.Eof ->
        Sjos_guard.Error.fail
          (Sjos_guard.Error.Internal "server closed the connection")
    | Sjos_serve.Wire.Bad msg ->
        Sjos_guard.Error.fail (Sjos_guard.Error.Internal msg)
  in
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:"health, metrics, prepare, exec, explain or analyze.")
  in
  let pattern_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "pattern" ] ~docv:"PATTERN" ~doc:"Query pattern.")
  in
  let algorithm_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "algorithm" ] ~docv:"ALGO" ~doc:"Optimizer algorithm name.")
  in
  let tenant_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant to run as.")
  in
  let name_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME" ~doc:"Prepared-statement name.")
  in
  let limit_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Tuple ceiling for this request.")
  in
  let include_tuples_flag =
    Arg.(
      value & flag
      & info [ "tuples" ] ~doc:"Include the full tuple list in the reply.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running 'sjos serve' instance and print \
          the JSON response.  Error responses exit with the same per-class \
          code the local CLI uses (parse 2 .. overloaded 9).")
    Term.(
      const run $ socket_opt $ op_arg $ pattern_opt $ xpath_flag
      $ algorithm_opt $ tenant_opt $ name_opt $ limit_opt $ deadline_opt
      $ include_tuples_flag)

let selftest_error_cmd =
  let run cls =
    guarded @@ fun () ->
    let open Sjos_guard in
    let e =
      match cls with
      | "parse_error" ->
          Error.Parse_error { input = "selftest"; message = "selftest" }
      | "invalid_request" -> Error.Invalid_request "selftest"
      | "invalid_plan" -> Error.Invalid_plan "selftest"
      | "budget_exhausted" ->
          Error.Budget_exhausted
            { resource = Budget.Wall_clock; during = "selftest" }
      | "corrupt_cache_entry" ->
          Error.Corrupt_cache_entry { key = "selftest"; reason = "selftest" }
      | "corrupt_input" ->
          Error.Corrupt_input { source = "selftest"; reason = "selftest" }
      | "internal" -> Error.Internal "selftest"
      | "overloaded" ->
          Error.Overloaded { reason = "selftest"; retry_after_ms = 1.0 }
      | other ->
          Error.Invalid_request
            (Printf.sprintf
               "unknown error class %S (expected one of: %s)" other
               (String.concat ", " Error.all_class_names))
    in
    Error.fail e
  in
  let cls_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CLASS"
          ~doc:"An error class name, e.g. parse_error or overloaded.")
  in
  Cmd.v
    (Cmd.info "selftest-error"
       ~doc:
         "Raise one structured error of the given class through the CLI \
          error boundary and exit with its mapped code — lets scripts \
          assert the class-to-exit-code table without crafting a failing \
          query per class.")
    Term.(const run $ cls_arg)

(* ---------- experiments ---------- *)

let scale_opt =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"S"
        ~doc:"Scale data set sizes by S (default 1.0; smaller is faster).")

let table1_cmd =
  let run scale =
    let sizes ds =
      max 500 (int_of_float (float_of_int (Workload.default_size ds) *. scale))
    in
    Experiment.print_table1
      (Experiment.table1 ~sizes ~max_tuples:50_000_000 ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (plan quality & opt time)")
    Term.(const run $ scale_opt)

let table2_cmd =
  let run scale =
    let size = max 500 (int_of_float (5_000. *. scale)) in
    Experiment.print_table2 (Experiment.table2 ~size ())
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Reproduce Table 2 (plans considered, Q.Pers.3.d)")
    Term.(const run $ scale_opt)

let table3_cmd =
  let run scale max_fold =
    let base_size = max 200 (int_of_float (2_000. *. scale)) in
    let folds = List.filter (fun f -> f <= max_fold) [ 1; 10; 100; 500 ] in
    Experiment.print_table3 (Experiment.table3 ~base_size ~folds ())
  in
  let max_fold =
    Arg.(
      value & opt int 500
      & info [ "max-fold" ] ~docv:"F" ~doc:"Largest folding factor to run.")
  in
  Cmd.v
    (Cmd.info "table3" ~doc:"Reproduce Table 3 (data-size effect)")
    Term.(const run $ scale_opt $ max_fold)

let fig_cmd name fold doc =
  let run scale =
    let base_size = max 200 (int_of_float (2_000. *. scale)) in
    Experiment.print_figure
      ~title:(Printf.sprintf "%s: DPAP-EB Te sweep, folding x%d" name fold)
      (Experiment.figure_te ~base_size ~fold ())
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ scale_opt)

let main =
  Cmd.group
    (Cmd.info "sjos" ~version:"1.0.0"
       ~doc:
         "Structural join order selection for XML query optimization (Wu, \
          Patel, Jagadish — ICDE 2003)")
    [
      gen_cmd;
      stats_cmd;
      query_cmd;
      explain_cmd;
      analyze_cmd;
      repl_cmd;
      metrics_cmd;
      serve_cmd;
      client_cmd;
      selftest_error_cmd;
      perf_gate_cmd;
      table1_cmd;
      table2_cmd;
      table3_cmd;
      fig_cmd "fig7" 100 "Reproduce Figure 7 (Te sweep at folding x100)";
      fig_cmd "fig8" 1 "Reproduce Figure 8 (Te sweep at folding x1)";
    ]

let () = exit (Cmd.eval main)
