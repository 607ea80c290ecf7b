open Sjos_pattern
open Sjos_plan
open Sjos_obs

type algorithm =
  | Dp
  | Dpp
  | Dpp_no_lookahead
  | Dpap_eb of int
  | Dpap_ld
  | Fp
  | Subset_dp
  | Big_dp of int

let name = function
  | Dp -> "DP"
  | Dpp -> "DPP"
  | Dpp_no_lookahead -> "DPP'"
  | Dpap_eb te -> Printf.sprintf "DPAP-EB(%d)" te
  | Dpap_ld -> "DPAP-LD"
  | Fp -> "FP"
  | Subset_dp -> "SubsetDP"
  | Big_dp w -> Printf.sprintf "BigDP(%d)" w

let default_te pat = Pattern.edge_count pat
let all pat = [ Dp; Dpp; Dpap_eb (default_te pat); Dpap_ld; Fp ]

(* Three tiers for an exact request.  The status-space searches run as
   asked up to the paper's largest query (7 nodes; Q.Pers.3.d has 6), so
   Table 1 and Table 2 measure the paper's algorithms.  Their work grows
   about 3x per node past that, while the exact subset DP returns the
   same optimum in milliseconds up to [exact_limit] nodes; past it, the
   width-capped beam keeps 30-40-node patterns sub-second. *)
let big_pattern_threshold = 7

(* The exact subset DP's memo is dense in the connected masks, and a
   star (the widest shape) has 2^(n-1) of them: about 10 MB at 16 nodes,
   doubling per node past it.  Its time stays below the beam's at every
   size measured; memory sets the limit (EXPERIMENTS.md, "Exact subset
   DP tier"). *)
let exact_limit = 16

let effective pat = function
  | (Dp | Dpp | Dpp_no_lookahead) as a
    when Pattern.node_count pat <= big_pattern_threshold ->
      a
  | Dp | Dpp | Dpp_no_lookahead | Subset_dp ->
      if Pattern.node_count pat <= exact_limit then Subset_dp
      else Big_dp Bigdp.default_width
  | a -> a

type result = {
  algorithm : algorithm;
  plan : Plan.t;
  est_cost : float;
  plans_considered : int;
  statuses_generated : int;
  statuses_expanded : int;
  opt_seconds : float;
  effort : Effort.t;
  degraded_from : algorithm option;
}

let optimize ?factors ?budget ~provider algorithm pat =
  (* Defensive double of the {!Pattern.create} check: a pattern wide
     enough to overflow the node bitmasks must never reach a search. *)
  if Pattern.node_count pat > Pattern.max_nodes then
    Sjos_guard.Error.fail
      (Sjos_guard.Error.Invalid_request
         (Printf.sprintf "pattern has %d nodes; the optimizer supports at most %d"
            (Pattern.node_count pat) Pattern.max_nodes));
  let requested = algorithm in
  let algorithm = effective pat algorithm in
  let ctx = Search.make_ctx ?factors ?budget ~provider pat in
  let span =
    Trace.begin_span "optimize"
      ~attrs:
        (("algorithm", Json.Str (name algorithm))
        ::
        (if requested = algorithm then []
         else [ ("requested", Json.Str (name requested)) ]))
  in
  let t0 = Clock.now_ns () in
  let _, plan =
    match algorithm with
    | Dp -> Dp.run ctx
    | Dpp -> Dpp.run ctx
    | Dpp_no_lookahead -> Dpp.run ~lookahead:false ctx
    | Dpap_eb te -> Dpp.run ~expansion_bound:(Some te) ctx
    | Dpap_ld -> Dpp.run ~left_deep:true ctx
    | Fp -> Fp.run ctx
    | Subset_dp -> Bigdp.run Bigdp.Exact ctx
    | Big_dp w -> Bigdp.run (Bigdp.Beam w) ctx
  in
  (* every tier reports the same tally of its plan, so two tiers that
     return the same plan report the same bits *)
  let est_cost = Search.plan_cost ctx plan in
  let opt_seconds = Clock.elapsed_seconds ~since:t0 in
  let eff = ctx.Search.effort in
  (* Deterministic optimizer work: one unit per status expansion, plus
     the (advisory) count of complete plans considered. *)
  let w = Work.current () in
  w.Work.expansions <- w.Work.expansions + eff.Effort.expanded;
  w.Work.plans_considered <- w.Work.plans_considered + eff.Effort.considered;
  Trace.end_span span
    ~attrs:[ ("est_cost", Json.Float est_cost); ("effort", Effort.to_json eff) ];
  Effort.publish ~prefix:("optimizer." ^ name algorithm) eff;
  if Registry.enabled () then
    Registry.add_seconds (Registry.timer "optimizer.opt_seconds") opt_seconds;
  {
    algorithm;
    plan;
    est_cost;
    plans_considered = eff.Effort.considered;
    statuses_generated = eff.Effort.generated;
    statuses_expanded = eff.Effort.expanded;
    opt_seconds;
    effort = eff;
    degraded_from = None;
  }

let is_exact = function
  | Dp | Dpp | Dpp_no_lookahead | Subset_dp | Big_dp _ -> true
  | Dpap_eb _ | Dpap_ld | Fp -> false

(* Anytime degradation: when the budget fires during an *exact* search,
   retry under a tier whose work is bounded *by construction*, so it can
   run outside the exhausted budget — the whole point is to always come
   back with *some* plan.  For paper-scale patterns that is DPAP-EB with
   a small Te (at most Te expansions per level).  Past the big-pattern
   threshold DPAP-EB is itself a status-space search and can blow up, so
   big patterns degrade to a narrow BigDP beam instead: its layered
   enumeration expands at most [width] masks per layer, O(width * n^2)
   work total, and the built-in greedy incumbent guarantees a plan even
   when the beam prunes everything. *)
let fallback_te pat = max 1 (min 4 (default_te pat))
let fallback_width = 16

let fallback_algorithm pat =
  if Pattern.node_count pat > big_pattern_threshold then Big_dp fallback_width
  else Dpap_eb (fallback_te pat)

let optimize_r ?factors ?(budget = Sjos_guard.Budget.unlimited) ~provider
    algorithm pat =
  match optimize ?factors ~budget ~provider algorithm pat with
  | r -> Ok r
  | exception Sjos_guard.Budget.Exhausted { resource; during } ->
      if is_exact algorithm then begin
        if Registry.enabled () then
          Registry.incr (Registry.counter "guard.degraded");
        Trace.event "optimizer.degraded"
          ~attrs:
            [
              ("from", Json.Str (name algorithm));
              ("resource", Json.Str (Sjos_guard.Budget.resource_name resource));
            ];
        match optimize ?factors ~provider (fallback_algorithm pat) pat with
        | r -> Ok { r with degraded_from = Some algorithm }
        | exception Sjos_guard.Budget.Exhausted { resource; during } ->
            Error
              (Sjos_guard.Error.Budget_exhausted { resource; during })
      end
      else Error (Sjos_guard.Error.Budget_exhausted { resource; during })

(* ---------- physical engine selection ---------- *)

type engine = Binary | Holistic | Auto

let engine_name = function
  | Binary -> "binary"
  | Holistic -> "holistic"
  | Auto -> "auto"

let engine_of_string s =
  match String.lowercase_ascii s with
  | "binary" -> Some Binary
  | "holistic" -> Some Holistic
  | "auto" -> Some Auto
  | _ -> None

(* The holistic "search": there is exactly one holistic plan per
   pattern, so producing it is O(pattern) — but it still gets costed
   (under the same factors that price the binary plans), counted as one
   considered plan, and timed, so Auto's comparison and the cache's
   synthesized results stay uniform across engines. *)
let holistic_result ?factors ~provider algorithm pat =
  let factors =
    match factors with Some f -> f | None -> Sjos_cost.Cost_model.default
  in
  let t0 = Clock.now_ns () in
  let plan = Plan.holistic_of_pattern pat in
  let est_cost = Costing.cost factors provider pat plan in
  let eff = Effort.create () in
  eff.Effort.considered <- 1;
  let w = Work.current () in
  w.Work.plans_considered <- w.Work.plans_considered + 1;
  {
    algorithm;
    plan;
    est_cost;
    plans_considered = 1;
    statuses_generated = 0;
    statuses_expanded = 0;
    opt_seconds = Clock.elapsed_seconds ~since:t0;
    effort = eff;
    degraded_from = None;
  }

let optimize_e ?factors ?budget ~provider ~engine algorithm pat =
  match engine with
  | Binary -> optimize_r ?factors ?budget ~provider algorithm pat
  | Holistic -> Ok (holistic_result ?factors ~provider algorithm pat)
  | Auto -> (
      match optimize_r ?factors ?budget ~provider algorithm pat with
      | Error _ as e -> e
      | Ok binary ->
          let holistic = holistic_result ?factors ~provider algorithm pat in
          (* strict inequality: ties go to the binary plan, whose cost
             formulae are the calibrated ones *)
          let winner =
            if holistic.est_cost < binary.est_cost then holistic else binary
          in
          Ok { winner with plans_considered = binary.plans_considered + 1 })

let pp_result pat ppf r =
  Fmt.pf ppf "@[<v>%s: est_cost=%.1f considered=%d opt=%.4fs fp=%s%s@,%s@]"
    (name r.algorithm) r.est_cost r.plans_considered r.opt_seconds
    (Fingerprint.short (Fingerprint.fingerprint pat))
    (match r.degraded_from with
    | Some a -> Printf.sprintf " (degraded from %s)" (name a)
    | None -> "")
    (Explain.to_string pat r.plan)

let result_to_json pat r =
  Json.Obj
    [
      ("algorithm", Json.Str (name r.algorithm));
      ("fingerprint", Json.Str (Fingerprint.fingerprint pat));
      ("est_cost", Json.Float r.est_cost);
      ("plans_considered", Json.Int r.plans_considered);
      ("statuses_generated", Json.Int r.statuses_generated);
      ("statuses_expanded", Json.Int r.statuses_expanded);
      ("opt_seconds", Json.Float r.opt_seconds);
      ("effort", Effort.to_json r.effort);
      ( "degraded_from",
        match r.degraded_from with
        | Some a -> Json.Str (name a)
        | None -> Json.Null );
      ("plan", Json.Str (Explain.one_line pat r.plan));
    ]
