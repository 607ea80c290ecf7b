open Sjos_xml
open Sjos_storage
open Sjos_histogram
open Sjos_cost
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_exec
open Sjos_cache
open Sjos_obs
open Sjos_guard

type t = {
  doc : Document.t;
  index : Element_index.t;
  (* Not a [Lazy.t]: forcing a lazy from two domains at once raises
     [CamlinternalLazy.Undefined] in one of them.  A mutex-guarded memo
     gives the same compute-once behavior safely. *)
  stats_m : Mutex.t;
  mutable stats_v : Stats.t option;
  mutable factors : Cost_model.factors;
  mutable grid : int;
  plan_cache : Plan_cache.t;
  catalog : Catalog.t;
  store : Column_store.t;
  (* Per-query [Query_opts.storage] overrides resolve through a small
     config-keyed memo, so repeated overridden queries share one store
     (and, for Disk, one buffer pool and its counters). *)
  stores_m : Mutex.t;
  mutable extra_stores : (Column_store.config * Column_store.t) list;
}

(* A grid of g costs O(g^2) cells per histogram: an absurd request is an
   out-of-range knob (Invalid_request), not an allocation failure later. *)
let max_grid = 4096

let validate_grid grid =
  if grid < 1 || grid > max_grid then
    Error.fail
      (Error.Invalid_request
         (Printf.sprintf "histogram grid %d out of range 1..%d" grid max_grid))

let of_document ?(factors = Cost_model.default) ?(grid = 32)
    ?(cache_capacity = 256) ?storage doc =
  validate_grid grid;
  let storage =
    match storage with Some c -> c | None -> Column_store.config_of_env ()
  in
  let index = Element_index.build doc in
  {
    doc;
    index;
    stats_m = Mutex.create ();
    stats_v = None;
    factors;
    grid;
    plan_cache = Plan_cache.create ~capacity:cache_capacity ();
    catalog = Catalog.create ~capacity:cache_capacity index;
    store = Column_store.create ~config:storage index;
    stores_m = Mutex.create ();
    extra_stores = [];
  }

let of_string ?factors ?grid ?cache_capacity ?storage s =
  of_document ?factors ?grid ?cache_capacity ?storage (Parser.parse_string s)

let load_file ?factors ?grid ?cache_capacity ?storage p =
  of_document ?factors ?grid ?cache_capacity ?storage (Parser.parse_file p)

let document t = t.doc
let index t = t.index
let store t = t.store

let store_for t (opts : Query_opts.t) =
  match opts.Query_opts.storage with
  | None -> t.store
  | Some c when Column_store.config_equal c (Column_store.config t.store) ->
      t.store
  | Some c ->
      Mutex.lock t.stores_m;
      let s =
        match
          List.find_opt
            (fun (c', _) -> Column_store.config_equal c c')
            t.extra_stores
        with
        | Some (_, s) -> s
        | None ->
            let s = Column_store.create ~config:c t.index in
            t.extra_stores <- (c, s) :: t.extra_stores;
            s
      in
      Mutex.unlock t.stores_m;
      s

let dispose t =
  Mutex.protect t.stores_m (fun () -> t.extra_stores <- [])

let stats t =
  Mutex.lock t.stats_m;
  let s =
    match t.stats_v with
    | Some s -> s
    | None ->
        let s = Stats.compute t.doc in
        t.stats_v <- Some s;
        s
  in
  Mutex.unlock t.stats_m;
  s

(* Build every lazily cached read-side structure up front, so that
   queries fanned out across domains afterwards touch only read paths. *)
let warm t =
  ignore (Document.positions t.doc);
  Element_index.warm t.index;
  ignore (stats t)
let factors t = t.factors
let grid t = t.grid
let plan_cache t = t.plan_cache
let catalog t = t.catalog
let invalidate_plans t = Plan_cache.bump_epoch t.plan_cache

let set_factors t factors =
  t.factors <- factors;
  invalidate_plans t

let set_grid t grid =
  validate_grid grid;
  t.grid <- grid;
  invalidate_plans t

let cardinality t ~grid pat =
  validate_grid grid;
  Cardinality.create ~grid t.catalog pat

let provider_of cards =
  {
    Costing.node_card = Cardinality.node_card cards;
    cluster_card = Cardinality.cluster_card cards;
  }

let provider t pat = provider_of (cardinality t ~grid:t.grid pat)

let eff_factors t (opts : Query_opts.t) =
  Option.value opts.Query_opts.factors ~default:t.factors

let eff_grid t (opts : Query_opts.t) =
  Option.value opts.Query_opts.grid ~default:t.grid

(* A query is cacheable only when it runs against the database's own
   statistics configuration: per-query factor/grid overrides would poison
   entries keyed purely on algorithm + structure.  Chaos runs are never
   cached either way — a plan chosen under lying statistics must not leak
   into healthy queries. *)
let cache_key t (opts : Query_opts.t) ~pat ~fingerprint =
  if
    opts.Query_opts.use_cache
    && Option.is_none opts.Query_opts.factors
    && Option.is_none opts.Query_opts.grid
    && Option.is_none opts.Query_opts.chaos
  then begin
    ignore t;
    (* the engine is part of the key: Auto and Binary may pick different
       plans for the same (algorithm, structure).  The algorithm is the
       *effective* one — a DPP request on a large pattern runs (and
       caches) as the BigDP tier, and the entry must say so. *)
    Some
      (Optimizer.engine_name opts.Query_opts.engine
      ^ "|"
      ^ Optimizer.name (Optimizer.effective pat opts.Query_opts.algorithm)
      ^ "|" ^ fingerprint)
  end
  else None

(* Run the optimizer through the plan cache.  On a hit the stored plan —
   serialized against the canonical numbering — is parsed and transported
   back to the caller's numbering; the synthesized result reports zero
   search effort and the (tiny) lookup time as [opt_seconds].  Returns the
   result and whether it came from the cache.

   Budget exhaustion goes through {!Optimizer.optimize_r}, so an exact
   search degrades to DPAP-EB instead of failing; a degraded plan is never
   stored (the budget, not the statistics, chose it).  A cached entry that
   fails to deserialize or no longer evaluates the pattern is treated as
   corruption: counted, overwritten by a fresh optimization, never served. *)
let resolve t ~(opts : Query_opts.t) ~pat ~canon ~from_canon ~to_canon ~key
    ~cards ~provider =
  let t0 = Clock.now_ns () in
  let fresh ~store () =
    (* statistics first, so the search span times only the search *)
    Cardinality.prefetch cards;
    match
      Optimizer.optimize_e ~factors:(eff_factors t opts)
        ~budget:opts.Query_opts.budget ~provider
        ~engine:opts.Query_opts.engine opts.Query_opts.algorithm pat
    with
    | Error e -> Error.fail e
    | Ok r ->
        (match (store, key) with
        | true, Some key when r.Optimizer.degraded_from = None ->
            let cplan = Plan.map_nodes to_canon r.Optimizer.plan in
            Plan_cache.add t.plan_cache key
              {
                Plan_cache.plan_text = Plan_io.to_string canon cplan;
                est_cost = r.Optimizer.est_cost;
                algorithm =
                  Optimizer.name
                    (Optimizer.effective pat opts.Query_opts.algorithm);
              }
        | _ -> ());
        (r, false)
  in
  let corrupt k reason =
    if Registry.enabled () then
      Registry.incr (Registry.counter "guard.corrupt_cache");
    Trace.event "plan_cache.corrupt"
      ~attrs:[ ("key", Json.Str k); ("reason", Json.Str reason) ];
    fresh ~store:true ()
  in
  match key with
  | None -> fresh ~store:false ()
  | Some k -> (
      match Plan_cache.find t.plan_cache k with
      | None -> fresh ~store:true ()
      | Some entry -> (
          match Plan_io.of_string canon entry.Plan_cache.plan_text with
          | Error msg -> corrupt k msg
          | Ok cplan -> (
              let plan = Plan.map_nodes from_canon cplan in
              match Properties.validate pat plan with
              | Error msg -> corrupt k msg
              | Ok () ->
                  ( {
                      Optimizer.algorithm =
                        Optimizer.effective pat opts.Query_opts.algorithm;
                      plan;
                      est_cost = entry.Plan_cache.est_cost;
                      plans_considered = 0;
                      statuses_generated = 0;
                      statuses_expanded = 0;
                      opt_seconds = Clock.elapsed_seconds ~since:t0;
                      effort = Effort.create ();
                      degraded_from = None;
                    },
                    true ))))

type prepared = {
  pdb : t;
  ppattern : Pattern.t;
  popts : Query_opts.t;
  pfingerprint : string;
  pkey : string option;
  pcanon : Pattern.t;
  pto_canon : int -> int;
  pfrom_canon : int -> int;
  pchaos : Chaos.t option;
  mutable pprovider : Costing.provider;
  mutable presult : Optimizer.result;
  mutable pcached : bool;
  mutable pepoch : int;
}

(* Fault injection hooks in at the two trust boundaries: the cardinality
   provider (lies) and the candidate streams (truncation / disorder).
   The caller's chaos instance is never drawn from directly: [prepare]
   derives an independent child stream keyed on the query fingerprint
   ({!Chaos.derive}), so which faults a query sees is a function of
   (seed, query) alone — not of how many queries ran before it, nor of
   the domain scheduling of a parallel workload. *)
let chaos_provider t ~(opts : Query_opts.t) ~chaos pat =
  let cards = cardinality t ~grid:(eff_grid t opts) pat in
  let p = provider_of cards in
  (cards, match chaos with Some c -> Chaos.wrap_provider c p | None -> p)

let chaos_fetch t chaos =
  match chaos with
  | Some c ->
      Some (fun spec -> Chaos.wrap_candidates c (Candidate.select t.index spec))
  | None -> None

let prepare ?(opts = Query_opts.default) t pat =
  let canon, mapping = Fingerprint.canonical pat in
  let inverse = Array.make (Array.length mapping) 0 in
  Array.iteri (fun old nw -> inverse.(nw) <- old) mapping;
  let to_canon i = mapping.(i) in
  let from_canon i = inverse.(i) in
  let fingerprint = Fingerprint.fingerprint pat in
  let chaos =
    Option.map
      (fun c -> Chaos.derive c ~key:fingerprint)
      opts.Query_opts.chaos
  in
  let key = cache_key t opts ~pat ~fingerprint in
  let cards, provider = chaos_provider t ~opts ~chaos pat in
  let result, cached =
    resolve t ~opts ~pat ~canon ~from_canon ~to_canon ~key ~cards ~provider
  in
  {
    pdb = t;
    ppattern = pat;
    popts = opts;
    pfingerprint = fingerprint;
    pkey = key;
    pcanon = canon;
    pto_canon = to_canon;
    pfrom_canon = from_canon;
    pchaos = chaos;
    pprovider = provider;
    presult = result;
    pcached = cached;
    pepoch = Plan_cache.epoch t.plan_cache;
  }

(* The handle survives configuration changes on its database: when the
   cache epoch has moved since the last resolve, rebuild the cardinality
   provider (the grid may have changed) and re-optimize. *)
let refresh p =
  let t = p.pdb in
  let epoch = Plan_cache.epoch t.plan_cache in
  if epoch <> p.pepoch then begin
    let cards, provider =
      chaos_provider t ~opts:p.popts ~chaos:p.pchaos p.ppattern
    in
    p.pprovider <- provider;
    let result, cached =
      resolve t ~opts:p.popts ~pat:p.ppattern ~canon:p.pcanon
        ~from_canon:p.pfrom_canon ~to_canon:p.pto_canon ~key:p.pkey ~cards
        ~provider
    in
    p.presult <- result;
    p.pcached <- cached;
    p.pepoch <- epoch
  end

let prepared_pattern p = p.ppattern
let prepared_opts p = p.popts
let prepared_fingerprint p = p.pfingerprint

let prepared_result p =
  refresh p;
  p.presult

let prepared_from_cache p = p.pcached

type query_run = { opt : Optimizer.result; exec : Executor.run }

let execute_plan ?budget ?max_tuples ?pool t pat plan =
  Executor.execute ~factors:t.factors ?budget ?max_tuples ?pool ~store:t.store
    t.index pat plan

let exec p =
  refresh p;
  let t = p.pdb in
  let exec =
    Executor.execute
      ~factors:(eff_factors t p.popts)
      ~budget:p.popts.Query_opts.budget
      ?max_tuples:p.popts.Query_opts.max_tuples
      ?fetch:(chaos_fetch t p.pchaos)
      ?pool:p.popts.Query_opts.pool
      ~store:(store_for t p.popts)
      t.index p.ppattern p.presult.Optimizer.plan
  in
  { opt = p.presult; exec }

let explain_prepared p =
  refresh p;
  Explain.with_costs
    (eff_factors p.pdb p.popts)
    p.pprovider p.ppattern p.presult.Optimizer.plan

type analysis = {
  opt : Optimizer.result;
  exec : Executor.run;
  rows : Explain.analysis_row list;
}

let analyze_prepared p =
  let r = exec p in
  let rows =
    Explain.analyze
      (eff_factors p.pdb p.popts)
      p.pprovider p.ppattern r.exec.Executor.profile
  in
  { opt = r.opt; exec = r.exec; rows }

let run ?opts t pat = exec (prepare ?opts t pat)

(* Result-returning surface: same pipeline, failures as values.  Anything
   the pipeline raises that is not already structured is an engine bug and
   comes back as [Internal]. *)
let prepare_r ?opts t pat = Error.protect (fun () -> prepare ?opts t pat)
let exec_r p = Error.protect (fun () -> exec p)
let run_r ?opts t pat = Error.protect (fun () -> run ?opts t pat)
let analyze_prepared_r p = Error.protect (fun () -> analyze_prepared p)

