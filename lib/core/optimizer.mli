(** Unified optimizer interface over the five algorithms of the paper,
    with search-effort accounting and wall-clock optimization time.

    An exact request (DP, DPP, DPP′) runs in one of three tiers by
    pattern size: the status search as asked up to
    {!big_pattern_threshold} nodes (the paper's query sizes, so Tables 1
    and 2 measure the paper's algorithms), the exact {!Subset_dp} up to
    {!exact_limit}, and the width-capped {!Big_dp} beam past it.  Every
    tier reports its plan's cost through one canonical tally
    ({!Search.plan_cost}). *)

open Sjos_pattern
open Sjos_plan

type algorithm =
  | Dp  (** exhaustive dynamic programming (§3.1) *)
  | Dpp  (** DP with pruning and lookahead (§3.2) *)
  | Dpp_no_lookahead  (** DPP′ of Table 2 — pruning without lookahead *)
  | Dpap_eb of int  (** expansion bound [Te] per level (§3.3.1) *)
  | Dpap_ld  (** left-deep plans only (§3.3.2) *)
  | Fp  (** fully-pipelined plans only (§3.4) *)
  | Subset_dp
      (** the exact subset DP over connected node-masks ({!Bigdp},
          exact mode): the status searches' optimum, in milliseconds on
          8-16-node patterns where they take up to seconds *)
  | Big_dp of int
      (** the width-capped beam of the same subset DP ({!Bigdp}, beam
          mode) — exact on small patterns, sub-second at 30-40 nodes
          where the exact searches are infeasible *)

val name : algorithm -> string
val all : Pattern.t -> algorithm list
(** The five algorithms evaluated in the paper, with DPAP-EB's [Te] set to
    the number of pattern edges (the §4.2 default). *)

val default_te : Pattern.t -> int
(** The paper's default tuning: [Te] = number of edges. *)

val big_pattern_threshold : int
(** Node count above which requests for an exact status search (DP,
    DPP, DPP′) are transparently re-tiered onto the subset DP (7, the
    paper's largest query) — the status space grows about 3x per node
    past the paper's query sizes. *)

val exact_limit : int
(** Node count up to which a re-tiered exact request runs the exact
    {!Subset_dp} (16); wider patterns take the beam. *)

val effective : Pattern.t -> algorithm -> algorithm
(** The algorithm {!optimize} will actually run for this pattern.  A DP,
    DPP or DPP′ request runs as given up to {!big_pattern_threshold}
    nodes, as [Subset_dp] up to {!exact_limit} nodes and as
    [Big_dp Bigdp.default_width] past it; a [Subset_dp] request takes
    the beam past {!exact_limit} too.  Every other request runs as
    given.  The returned {!result}'s [algorithm] field and the engine's
    plan-cache key both use this, never the requested tier. *)

type result = {
  algorithm : algorithm;
  plan : Plan.t;
  est_cost : float;
      (** estimated cost of [plan] under the cost model, as
          {!Search.plan_cost} tallies it *)
  plans_considered : int;  (** alternative (sub-)plans costed *)
  statuses_generated : int;
  statuses_expanded : int;
  opt_seconds : float;
      (** monotonic wall-clock time spent optimizing (never negative) *)
  effort : Effort.t;  (** the full search-effort breakdown *)
  degraded_from : algorithm option;
      (** [Some a] when the budget fired during exact algorithm [a] and
          the plan came from the bounded fallback tier instead *)
}

val optimize :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  algorithm ->
  Pattern.t ->
  result
(** Run one algorithm over a pattern.  The returned plan is always valid
    for the pattern ({!Sjos_plan.Properties.validate}).  Raises
    {!Sjos_guard.Budget.Exhausted} when [budget] fires — prefer
    {!optimize_r}, which degrades gracefully. *)

val optimize_r :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  algorithm ->
  Pattern.t ->
  (result, Sjos_guard.Error.t) Stdlib.result
(** Like {!optimize}, but budget exhaustion becomes a value.  When the
    budget fires during an {e exact} search (DP, DPP, DPP′, BigDP) the
    query degrades to a tier with work bounded by construction — DPAP-EB
    with a capped [Te] at paper scale, a 16-wide BigDP beam past
    {!big_pattern_threshold} — and the result carries [degraded_from]; the
    [guard.degraded] registry counter and an [optimizer.degraded] trace
    event record the fallback.  Exhaustion in an already-heuristic tier
    returns [Error (Budget_exhausted _)]. *)

(** {1 Physical engine selection}

    The binary Stack-Tree plans and the holistic TwigStack operator are
    two physical algebras for the same logical pattern.  [Binary] is the
    paper's search space (the default everywhere — Table 2 and all
    existing behavior are unchanged); [Holistic] forces the single
    {!Plan.Holistic} plan; [Auto] runs the binary search and picks
    whichever side's estimated cost is lower (ties to binary). *)

type engine = Binary | Holistic | Auto

val engine_name : engine -> string
(** ["binary"], ["holistic"], ["auto"] — also the cache-key prefix. *)

val engine_of_string : string -> engine option
(** Case-insensitive inverse of {!engine_name}. *)

val holistic_result :
  ?factors:Sjos_cost.Cost_model.factors ->
  provider:Costing.provider ->
  algorithm ->
  Pattern.t ->
  result
(** The (unique) holistic plan for a pattern, costed under the same
    factors as the binary search; counts as one considered plan.  The
    [algorithm] tag is carried through for reporting only. *)

val optimize_e :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  engine:engine ->
  algorithm ->
  Pattern.t ->
  (result, Sjos_guard.Error.t) Stdlib.result
(** {!optimize_r} generalized over the physical engine.  [Auto] charges
    one extra considered plan (the holistic alternative) on top of the
    binary search's count; a budget error from the binary search
    propagates even under [Auto]. *)

val pp_result : Pattern.t -> result Fmt.t

val result_to_json : Pattern.t -> result -> Sjos_obs.Json.t
(** Machine-readable counterpart of {!pp_result}: algorithm, estimated
    cost, effort counters, optimization seconds and the one-line plan. *)
