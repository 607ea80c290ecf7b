(** Shared search machinery: moves, expansion, deadend lookahead, final
    sorting, and the effort counters every algorithm reports.

    A move (Definition 4) evaluates one remaining pattern edge [(u, v)].
    Stack-Tree joins consume inputs sorted by the join nodes, so the move
    requires the cluster containing [u] to be ordered by [u] and the
    cluster containing [v] by [v].  The move picks the join algorithm
    (Stack-Tree-Anc → output ordered by [u]; Stack-Tree-Desc → by [v]) and
    may re-sort the output by any other node of the merged cluster that a
    remaining edge still needs. *)

open Sjos_pattern
open Sjos_plan

type ctx = {
  pat : Pattern.t;
  factors : Sjos_cost.Cost_model.factors;
  provider : Costing.provider;
  edges : Pattern.edge array;
  effort : Effort.t;  (** search-effort counters, always on *)
  budget : Sjos_guard.Budget.t;
      (** resource ceilings for this search; checked before every
          expansion and never perturbing search order *)
}

val make_ctx :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  provider:Costing.provider ->
  Pattern.t ->
  ctx

val check_budget : ctx -> unit
(** Poll the context's budget against its effort counters; raises
    {!Sjos_guard.Budget.Exhausted} when a ceiling fired.  Called by
    {!expand}; algorithms with their own inner loops (FP's permutation
    scan) call it directly. *)

val remaining_edges : ctx -> Status.t -> (int * Pattern.edge) list
(** Indexed pattern edges not yet evaluated by the status. *)

val edge_joinable : Status.t -> Pattern.edge -> bool
(** Does the status satisfy the Stack-Tree input-order requirement for the
    edge? *)

val is_deadend : ctx -> Status.t -> bool
(** Definition 6: non-final and no remaining edge is joinable. *)

val expand :
  ?left_deep:bool ->
  ?lookahead:bool ->
  ?cost_bound:float ->
  ctx ->
  Status.t ->
  Status.t list
(** All successor statuses reachable by one move.  Every returned status
    bumps [effort.considered] and [effort.generated]; the call itself
    bumps [effort.expanded].  With [~left_deep:true], successors with two
    composite clusters are not generated (the DPAP-LD rule; skipped moves
    bump [effort.pruned_left_deep]).  With [~lookahead:true], deadend
    successors are detected one step ahead and never generated nor counted
    (DPP's Lookahead Rule; bumps [effort.pruned_deadend]).  Successors
    whose accumulated cost reaches [cost_bound] (the cost of the best
    complete plan found so far) are dead on arrival and are not generated
    either (the Pruning Rule; bumps [effort.pruned_bound]). *)

val useful_sort_targets : ctx -> joined:int -> merged_mask:int -> int list
(** Nodes of the merged cluster that some remaining edge still needs as an
    input order — the only worthwhile output re-sort targets. *)

val finalize : ctx -> Status.t -> float * Plan.t
(** Cost and plan of a final status, adding the result sort required by the
    pattern's order-by node, if any.  Raises [Invalid_argument] on a
    non-final status. *)

val ub_cost : ctx -> Status.t -> float
(** DPP's [ubCost]: a quick upper-bound style estimate of the cost needed
    to finish the status — for every remaining edge, a Stack-Tree-Anc join
    at current cluster cardinalities plus a sort of its output.  Used only
    to order expansion; pruning relies on [cost] alone, so optimality does
    not depend on this being a true upper bound. *)

val plan_cost : ctx -> Plan.t -> float
(** The canonical tally of a plan's estimated cost, which every
    {!Optimizer} tier reports: the index scans in node order, then each
    join and sort in plan post-order (the order-by sort, at the root,
    comes last).  Cardinalities are read as the searches read them —
    a single node's from [node_card], a cluster's from [cluster_card] —
    so the tally equals a search's internal sum up to the order of the
    additions. *)
