(* What one run reports, and the per-layer metrics derived from the
   traced run's spans. *)

module Json = Util.Json
module Work = Util.Work

type trace = {
  w0 : int64;
  w1 : int64;  (** the traced window *)
  ops : int;  (** operations completed inside the window *)
  untraced_op_s : float list;  (** op wall times after tracing stopped *)
  traced_op_s : float list;  (** op wall times, probes included *)
  setups : Layers.setup list;  (** set-ups run under tracing *)
  doc_mb : float;
  work_per_op : Work.t;  (** execution work of one operation *)
  extra : Util.metric list;  (** layer counts only the workload can read *)
}

type t = {
  attempted : int;
  failed : int;
  errors : string list;
  e2e : Util.metric list;
  samples : (string * int) list;
  counts : (string * Json.t) list;  (** deterministic layer counts *)
  answers : Json.t;  (** values run.py checks against pins.json *)
  config : Json.t;
  detail : (string * Json.t) list;  (** anything else worth reading *)
  trace : trace option;
}

(* The per-layer counts a workload reads from the program's own
   counters, per operation; a layer the workload does not reach
   reports 0. *)
let extra ~pager_misses ~pager_hit_ratio ~page_touches ~cache_hit_ratio
    ~cache_evictions ~plans_considered ~statuses_expanded ~bigdp_share
    ~exec_alloc_mb ~shed =
  let m = Util.metric in
  [
    m "storage.pager_misses" "count" pager_misses;
    m "storage.pager_hit_ratio" "ratio" pager_hit_ratio;
    m "storage.page_touches" "count" page_touches;
    m "cache.hit_ratio" "ratio" cache_hit_ratio;
    m "cache.evictions" "count" cache_evictions;
    m "core.plans_considered" "count" plans_considered;
    m "core.statuses_expanded" "count" statuses_expanded;
    m "core.bigdp_share" "ratio" bigdp_share;
    m "exec.alloc_mb" "MB" exec_alloc_mb;
    m "serve.shed" "count" shed;
  ]

let layers = [ "xml"; "engine"; "storage"; "histogram"; "pattern"; "core"; "exec"; "serve" ]

let per_layer spans tr =
  let m = Util.metric in
  let med name = match Spans.durations spans name with [] -> 0.0 | d -> Util.median d in
  let per_op name =
    Util.sum (Spans.durations spans name) /. float_of_int (max 1 tr.ops)
  in
  let self = Spans.self_by_layer spans in
  let total_self = Util.sum (List.map snd self) in
  let self_frac l =
    if total_self <= 0.0 then 0.0
    else Option.value (List.assoc_opt l self) ~default:0.0 /. total_self
  in
  let window_ms = Int64.to_float (Int64.sub tr.w1 tr.w0) /. 1e6 in
  let covered = Spans.covered_ms spans ~w0:tr.w0 ~w1:tr.w1 in
  let unattributed = Float.max 0.0 (1.0 -. (covered /. window_ms)) in
  let overhead =
    match (tr.untraced_op_s, tr.traced_op_s) with
    | [], _ | _, [] -> nan
    | u, t -> (Util.median t /. Util.median u) -. 1.0
  in
  let parse_ms = med "xml.parse" in
  let setup_med f = Util.median (List.map f tr.setups) in
  [
    m "xml.parse_ms" "ms" parse_ms;
    m "xml.parse_mb_per_s" "MB/s" (if parse_ms > 0.0 then tr.doc_mb /. (parse_ms /. 1000.0) else 0.0);
    m "xml.parse_alloc_mb" "MB" (setup_med (fun s -> s.Layers.parse_alloc_mb));
    m "engine.of_document_ms" "ms" (med "engine.of_document");
    m "engine.warm_ms" "ms" (med "engine.warm");
    m "engine.load_alloc_mb" "MB" (setup_med (fun s -> s.Layers.load_alloc_mb));
    m "storage.build_ms" "ms" (med "storage.build");
    m "histogram.estimate_ms" "ms" (per_op "histogram.estimate");
    m "pattern.parse_us" "us" (med "pattern.parse" *. 1000.0);
    m "pattern.fingerprint_us" "us" (med "pattern.fingerprint" *. 1000.0);
    m "core.search_ms" "ms" (per_op "core.search");
    m "exec.comparisons" "count" (float_of_int tr.work_per_op.Work.comparisons);
    m "exec.tuples_emitted" "count" (float_of_int tr.work_per_op.Work.tuples_emitted);
    m "exec.items_skipped" "count" (float_of_int tr.work_per_op.Work.items_skipped);
  ]
  @ tr.extra
  @ List.map (fun l -> m (l ^ ".self_frac") "ratio" (self_frac l)) layers
  @ [
      m "trace.unattributed_frac" "ratio" unattributed;
      m "trace.overhead_frac" "ratio" overhead;
    ]

let to_json ~workload ~spans r =
  let per_layer =
    match r.trace with Some tr -> per_layer spans tr | None -> []
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("errors", Json.List (List.map (fun e -> Json.Str e) r.errors));
      ("metrics", Util.metrics_json r.e2e);
      ("per_layer", Util.metrics_json per_layer);
      ("samples", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.samples));
      ("counts", Json.Obj r.counts);
      ("answers", r.answers);
      ("config", r.config);
      ("detail", Json.Obj r.detail);
    ]
