(* hot-serve: the paper-size Mbench document, loaded once on the Disk
   backend with the default buffer pool (256 x 8 KiB pages, against
   about 23.7 MB of columns), served by an in-process [Server.run] on a
   Unix socket.  Two clients in a closed loop (each waits for its reply
   before sending again) replay a seeded mix of prepared-name and
   ad-hoc [exec] requests.  The plan cache holds every pattern, so each
   request costs a cache-hit prepare, an exec through a pool smaller
   than its working set, and serve framing. *)

open Sjos_engine
module Json = Util.Json
module Work = Util.Work
module Server = Sjos_serve.Server
module Wire = Sjos_serve.Wire
module Column_store = Util.Column_store
module Plan_cache = Sjos_cache.Plan_cache

let storage = Column_store.disk ()
let clients = 2
let setups = 3
let tenant = "bench"

(* enough samples that ten lie beyond the 90th percentile *)
let min_requests = 100

type pattern = {
  name : string;
  cls : string;
  text : string;
  named : bool;
  pat : Sjos_pattern.Pattern.t;
}

type reference = {
  matches : int;
  digest : string;
  set_digest : string;
  work : Work.t;
  alloc_mb : float;
  direct_ms : float;
}

let read_mix dir =
  let text = String.concat "\n" (Util.read_lines (Filename.concat dir "mix.json")) in
  let j = match Json.of_string text with Ok j -> j | Error e -> failwith e in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> failwith k in
  let patterns =
    match Json.member "patterns" j with
    | Some (Json.List l) ->
        List.map
          (fun o ->
            let text = str "pattern" o in
            {
              name = str "name" o;
              cls = str "class" o;
              text;
              named = Json.member "named" o = Some (Json.Bool true);
              pat = Sjos_pattern.Parse.pattern text;
            })
          l
    | _ -> failwith "mix.json: patterns"
  in
  let sequence =
    match Json.member "sequence" j with
    | Some (Json.List l) ->
        List.map (function Json.Int i -> i | _ -> failwith "mix.json: sequence") l
    | _ -> failwith "mix.json: sequence"
  in
  (Array.of_list patterns, Array.of_list sequence)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let call fd req =
  Wire.write_frame fd req;
  match Wire.read_frame fd with
  | Wire.Frame j -> Ok j
  | Wire.Eof -> Error "connection closed"
  | Wire.Bad m -> Error m

let exec_request p id =
  Json.Obj
    ([ ("op", Json.Str "exec"); ("id", Json.Int id); ("tenant", Json.Str tenant) ]
    @ if p.named then [ ("name", Json.Str p.name) ] else [ ("pattern", Json.Str p.text) ])

type server = { db : Database.t; srv : Server.t; thread : Thread.t; socket : string }

(* Set-up: file on disk -> warm database (with the Disk column write
   inside [of_document]) -> a server accepting on its socket. *)
let start ~dir ~k path =
  let req = 1_000_000 + k in
  let socket = Filename.concat dir (Printf.sprintf "serve-%d.sock" k) in
  let t0 = Util.now_ns () in
  let (db, st, srv, thread), _ =
    Spans.timed ~req "bench" "bench.setup" (fun () ->
        let db, st = Layers.setup ~storage ~req path in
        let srv, thread =
          Spans.span ~req "serve" "serve.start" (fun () ->
              let srv = Server.create ~pool:Util.pool db in
              let thread = Thread.create (fun () -> Server.run srv ~socket_path:socket) () in
              let rec wait () =
                match connect socket with
                | Some fd -> Unix.close fd
                | None ->
                    Thread.delay 0.001;
                    wait ()
              in
              wait ();
              (srv, thread))
        in
        (db, st, srv, thread))
  in
  let seconds = Util.s_since t0 in
  Layers.probe_store_build ~storage ~req st db;
  ({ db; srv; thread; socket }, { st with Layers.seconds })

let stop s =
  Server.initiate_drain s.srv;
  Thread.join s.thread;
  Database.dispose s.db

type sample = {
  pidx : int;
  ms : float;
  ok : bool;
  shed : bool;
  error : string option;
}

let run ~dir ~seconds ~traced =
  let path = Filename.concat dir "doc.xml" in
  let patterns, sequence = read_mix dir in
  Spans.on := traced;
  let setup_stats = ref [] and server = ref None in
  for k = 0 to setups - 1 do
    Option.iter stop !server;
    server := None;
    Gc.compact ();
    let s, st = start ~dir ~k path in
    setup_stats := st :: !setup_stats;
    server := Some s
  done;
  Spans.on := false;
  let s = Option.get !server in
  let db = s.db in
  (* bind the named half of the mix *)
  let admin = Option.get (connect s.socket) in
  Array.iter
    (fun p ->
      if p.named then
        match
          call admin
            (Json.Obj
               [
                 ("op", Json.Str "prepare");
                 ("tenant", Json.Str tenant);
                 ("name", Json.Str p.name);
                 ("pattern", Json.Str p.text);
               ])
        with
        | Ok r when Json.member "ok" r = Some (Json.Bool true) -> ()
        | _ -> failwith ("could not prepare " ^ p.name))
    patterns;
  Unix.close admin;
  (* reference answers: a direct, serial, uncached exec of each pattern *)
  let ref_opts = Query_opts.make ~use_cache:false ~pool:Util.pool () in
  let ref_io0 = Column_store.io_stats (Database.store db) in
  let references =
    Array.map
      (fun p ->
        let w0 = Work.snapshot () in
        let t0 = Util.now_ns () in
        let run, alloc_mb = Util.alloc_mb (fun () -> Database.run ~opts:ref_opts db p.pat) in
        let direct_ms = Util.ms_since t0 in
        let tuples = run.Database.exec.Sjos_exec.Executor.tuples in
        {
          matches = Array.length tuples;
          digest = Server.result_digest tuples;
          set_digest = Util.set_digest tuples;
          work = Work.diff ~after:(Work.snapshot ()) ~before:w0;
          alloc_mb;
          direct_ms;
        })
      patterns
  in
  let ref_misses =
    match (ref_io0, Column_store.io_stats (Database.store db)) with
    | Some a, Some b -> b.Sjos_storage.Pager.misses - a.Sjos_storage.Pager.misses
    | _ -> 0
  in
  (* the measured loop starts from a cold buffer pool *)
  Column_store.reset_io (Database.store db);
  Gc.compact ();
  let cache0 = Plan_cache.stats (Database.plan_cache db) in
  let work0 = Work.snapshot () in
  let next = Atomic.make 0 and completed = Atomic.make 0 in
  let t_start = Util.now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let hard_stop = Int64.add t_start (Int64.of_float (3.0 *. seconds *. 1e9)) in
  let samples = Array.make clients [] in
  let untraced_op = Array.make clients [] and traced_op = Array.make clients [] in
  let client c =
    let fd = Option.get (connect s.socket) in
    let rec loop () =
      let now = Util.now_ns () in
      if (now < deadline || Atomic.get completed < min_requests) && now < hard_stop then begin
        let id = Atomic.fetch_and_add next 1 in
        let pidx = sequence.(id mod Array.length sequence) in
        let p = patterns.(pidx) in
        let t0 = Util.now_ns () in
        let resp, root =
          Spans.timed ~req:id "serve" "serve.request" (fun () ->
              call fd (exec_request p id))
        in
        let ms = Util.ms_since t0 in
        let sample =
          match resp with
          | Error e -> { pidx; ms; ok = false; shed = false; error = Some e }
          | Ok r -> (
              match Json.member "ok" r with
              | Some (Json.Bool true) ->
                  let want = references.(pidx) in
                  let matches = Wire.int_field r "matches" in
                  let digest = Wire.string_field r "digest" in
                  let cached = Wire.bool_field r "plan_cached" = Some true in
                  Option.iter
                    (fun seconds -> Spans.reported ~parent:root ~req:id "exec" "exec.exec" ~seconds)
                    (Wire.number_field r "exec_seconds");
                  if not p.named then
                    ignore (Spans.probe ~parent:root ~req:id "pattern" "pattern.parse"
                              (fun () -> Sjos_pattern.Parse.pattern p.text));
                  Layers.decompose ~parent:root ~req:id ~searched:(not cached) db p.pat;
                  if matches = Some want.matches && digest = Some want.digest then
                    { pidx; ms; ok = true; shed = false; error = None }
                  else
                    { pidx; ms; ok = false; shed = false;
                      error = Some (p.name ^ ": answer differs from direct exec") }
              | _ ->
                  let cls =
                    match Json.member "error" r with
                    | Some e -> Option.value (Wire.string_field e "class") ~default:"?"
                    | None -> "?"
                  in
                  { pidx; ms; ok = false; shed = cls = "overloaded";
                    error = Some (p.name ^ ": error " ^ cls) })
        in
        let op_s = Util.s_since t0 in
        if root >= 0 then traced_op.(c) <- op_s :: traced_op.(c)
        else untraced_op.(c) <- op_s :: untraced_op.(c);
        samples.(c) <- sample :: samples.(c);
        Atomic.incr completed;
        loop ()
      end
    in
    loop ();
    Unix.close fd
  in
  Spans.on := traced;
  let threads = List.init clients (fun c -> Thread.create client c) in
  let w_end =
    if traced then begin
      let until = Util.trace_until ~t_start ~seconds in
      let wait = Int64.to_float (Int64.sub until (Util.now_ns ())) /. 1e9 in
      if wait > 0.0 then Thread.delay wait;
      Spans.on := false;
      Util.now_ns ()
    end
    else t_start
  in
  List.iter Thread.join threads;
  let wall_s = Util.s_since t_start in
  let work = Work.diff ~after:(Work.snapshot ()) ~before:work0 in
  let io = Column_store.io_stats (Database.store db) in
  let cache1 = Plan_cache.stats (Database.plan_cache db) in
  let peak_heap_mb = Util.peak_heap_mb () in
  (* the direct answers themselves are checked by the independent
     counter (after the heap reading: its tables are not the server's) *)
  let oracle_errors =
    List.filter_map
      (fun (p, (r : reference)) ->
        if Oracle.count (Database.document db) p.pat <> r.matches then
          Some (p.name ^ ": match count differs from the independent counter")
        else None)
      (Array.to_list (Array.map2 (fun p r -> (p, r)) patterns references))
  in
  stop s;
  let all = List.concat (Array.to_list samples) in
  let n = List.length all in
  let fn = float_of_int (max 1 n) in
  let failures = List.filter (fun x -> not x.ok) all in
  let shed = List.length (List.filter (fun x -> x.shed) all) in
  let errors =
    oracle_errors @ List.sort_uniq compare (List.filter_map (fun x -> x.error) failures)
  in
  let lat = List.map (fun x -> x.ms) all in
  let misses, hits, accesses =
    match io with
    | Some st -> Sjos_storage.Pager.(st.misses, st.hits, st.accesses)
    | None -> (0, 0, 0)
  in
  let per_req v = float_of_int v /. fn in
  let lookups =
    cache1.Plan_cache.hits + cache1.Plan_cache.misses - cache0.Plan_cache.hits
    - cache0.Plan_cache.misses
  in
  let class_share cls =
    float_of_int (List.length (List.filter (fun x -> patterns.(x.pidx).cls = cls) all)) /. fn
  in
  let counts =
    List.concat_map
      (fun (p, (r : reference)) ->
        List.map
          (fun (k, v) -> (p.name ^ "." ^ k, Util.count_json [ v ]))
          [
            ("matches", r.matches);
            ("comparisons", r.work.Work.comparisons);
            ("tuples_emitted", r.work.Work.tuples_emitted);
            ("items_skipped", r.work.Work.items_skipped);
            ("page_touches", r.work.Work.page_touches);
          ])
      (Array.to_list (Array.map2 (fun p r -> (p, r)) patterns references))
    @ [
        ("reference_pager_misses", Util.count_json [ ref_misses ]);
        (* two clients interleave in the LRU pool: these vary run to run *)
        ( "loop_pager_misses_per_request",
          Json.Obj [ ("value", Json.Float (per_req misses)); ("repeats_exactly", Json.Bool false) ] );
        ( "loop_pure_tag_share",
          Json.Obj
            [ ("value", Json.Float (class_share "pure_tag")); ("repeats_exactly", Json.Bool false) ] );
      ]
  in
  let exec_alloc_mb =
    Util.sum (List.map (fun x -> references.(x.pidx).alloc_mb) all) /. fn
  in
  let setup_stats = List.rev !setup_stats in
  {
    Report.attempted = n;
    failed = List.length failures + List.length oracle_errors;
    errors;
    e2e =
      [
        Util.metric "setup_s" "s" (Util.median (List.map (fun s -> s.Layers.seconds) setup_stats));
        Util.metric "latency_p50_ms" "ms" (Util.median lat);
        Util.metric "latency_p90_ms" "ms" (Util.quantile 0.9 lat);
        Util.metric "throughput_per_s" "1/s" (float_of_int n /. wall_s);
        Util.metric "peak_heap_mb" "MB" peak_heap_mb;
      ];
    samples = [ ("setup_s", setups); ("latency_ms", n); ("clients", clients) ];
    counts;
    answers =
      Json.Obj
        (Array.to_list
           (Array.map2
              (fun p (r : reference) ->
                ( p.name,
                  Json.Obj
                    [ ("matches", Json.Int r.matches); ("set_digest", Json.Str r.set_digest) ] ))
              patterns references));
    config = Util.config_json ~storage;
    detail =
      [
        ( "latency_by_pattern_ms",
          Json.Obj
            (Array.to_list
               (Array.mapi
                  (fun i p ->
                    let l = List.filter_map (fun x -> if x.pidx = i then Some x.ms else None) all in
                    ( p.name,
                      Json.Obj
                        [
                          ("class", Json.Str p.cls);
                          ("n", Json.Int (List.length l));
                          ("p50", Json.Float (Util.median l));
                          ("direct_ms", Json.Float references.(i).direct_ms);
                        ] ))
                  patterns)) );
      ];
    trace =
      (if traced then
         Some
           {
             Report.w0 = t_start;
             w1 = w_end;
             ops = List.length (List.concat (Array.to_list traced_op));
             untraced_op_s = List.concat (Array.to_list untraced_op);
             traced_op_s = List.concat (Array.to_list traced_op);
             setups = setup_stats;
             doc_mb = Util.file_mb path;
             work_per_op =
               {
                 (Work.zero ()) with
                 Work.comparisons = work.Work.comparisons / max 1 n;
                 tuples_emitted = work.Work.tuples_emitted / max 1 n;
                 items_skipped = work.Work.items_skipped / max 1 n;
               };
             extra =
               Report.extra ~pager_misses:(per_req misses)
                 ~pager_hit_ratio:
                   (if accesses = 0 then 0.0 else float_of_int hits /. float_of_int accesses)
                 ~page_touches:(per_req accesses)
                 ~cache_hit_ratio:
                   (if lookups = 0 then 0.0
                    else
                      float_of_int (cache1.Plan_cache.hits - cache0.Plan_cache.hits)
                      /. float_of_int lookups)
                 ~cache_evictions:
                   (float_of_int (cache1.Plan_cache.evictions - cache0.Plan_cache.evictions))
                 ~plans_considered:(per_req work.Work.plans_considered)
                 ~statuses_expanded:(per_req work.Work.expansions)
                 ~bigdp_share:0.0 ~exec_alloc_mb ~shed:(float_of_int shed);
           }
       else None);
  }
