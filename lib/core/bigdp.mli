(** Large-pattern optimizer tier: bottom-up subset DP over connected
    node-masks, after DPconv's layered-subset formulation.

    Where the paper's status search memoizes whole partitions, this tier
    memoizes one entry per [(mask, order)] — the best sub-plan producing
    exactly the nodes of the connected mask, ordered by the given node.
    For tree patterns the two searches find the same optimum: a
    cluster's internal edges, boundary sort targets and cost are all
    independent of how the remaining nodes are partitioned.

    Two modes share the recurrence (each connected mask splits at each
    of its internal edges into two smaller connected masks):

    - {!Exact} visits every connected mask with no cap and no bound, so
      it returns the optimum.  Its work is the sum of the connected
      masks' sizes: polynomial on chains, about [n 2^(n-1)] on stars.
      It allocates nothing per mask, but keeps a [2^n] slot index, so it
      takes at most {!exact_max_nodes} nodes.
    - {!Beam} [width] bounds the work by cost-bound pruning against a
      greedy O(n²) incumbent plan, a per-layer width cap (only the
      [width] cheapest masks of each popcount layer seed the next) and
      budget polling.  Its layers at ≤ 10 nodes never reach the default
      width, so the beam is exact there; beyond it degrades gracefully
      to the best plan found (never worse than the greedy incumbent).

    Both modes poll {!Search.check_budget} once per expanded mask.
    Enumeration is serial and iteration-order-free, so the effort
    counters are deterministic across runs and domain counts. *)

val default_width : int
(** Per-layer mask cap of the beam used by {!Optimizer} past its exact
    limit (1024). *)

val exact_max_nodes : int
(** Widest pattern the exact mode accepts (24). *)

type mode =
  | Exact  (** every connected mask, no cap, no bound *)
  | Beam of int  (** the width-capped, incumbent-pruned beam *)

val run : mode -> Search.ctx -> float * Sjos_plan.Plan.t
(** [run mode ctx] returns the cheapest complete plan found and its
    cost, including the order-by sort.  The plan is always valid for the
    pattern.  Effort counters move on the context: one [expanded] per
    processed mask, [considered]/[generated] per memo candidate, and in
    the beam [pruned_bound] per candidate cut by the incumbent bound or
    the layer cap.  Raises {!Sjos_guard.Budget.Exhausted} when the
    context's budget fires, and [Invalid_argument] when a beam width is
    below 1 or an exact pattern is wider than {!exact_max_nodes}. *)
