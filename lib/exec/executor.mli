(** Plan interpretation: run a physical plan against an indexed document
    and collect both the matches and the operation accounting. *)

open Sjos_storage
open Sjos_pattern
open Sjos_plan

type kernel = [ `Columnar | `Legacy ]
(** Which physical engine interprets the plan.  [`Columnar] (the default)
    runs the batch execution engine: flat-array scans, key-column
    permutation sorts and the skip-ahead Stack-Tree kernels.  [`Legacy]
    runs the original tuple-array operators ({!Stack_tree_legacy},
    {!Operators.sort_legacy}) — kept as the measured baseline for
    [bench/perf.ml] and the differential tests.  Both engines produce
    identical tuples, profiles and counters (modulo
    {!Sjos_obs.Work.t.items_skipped}). *)

type run = {
  tuples : Tuple.t array;  (** the pattern matches, one tuple per match *)
  work : Sjos_obs.Work.t;
      (** the work the plan's operators charged, summed over operators
          (and over shards of a pooled join) *)
  cost_units : float;  (** {!cost_units} of [work] *)
  seconds : float;  (** monotonic wall-clock execution time *)
  profile : Explain.measured;
      (** per-operator actual rows, cost units and self time — feed to
          {!Sjos_plan.Explain.analyze} for EXPLAIN ANALYZE *)
}

val cost_units : Sjos_cost.Cost_model.factors -> Sjos_obs.Work.t -> float
(** Work weighted by the cost model:
    [f_index*candidates_scanned + f_stack*stack_ops + f_io*io_items
    + f_sort*sort_cost] — directly comparable with the optimizer's
    estimates, independent of the host machine. *)

val execute :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?budget:Sjos_guard.Budget.t ->
  ?max_tuples:int ->
  ?fetch:(Candidate.spec -> Sjos_xml.Node.t array) ->
  ?kernel:kernel ->
  ?pool:Sjos_par.Pool.t ->
  ?store:Column_store.t ->
  Element_index.t ->
  Pattern.t ->
  Plan.t ->
  run
(** Execute a plan under a resource budget.

    [pool] supplies the domain pool the columnar join kernels shard
    large joins over (see {!Stack_tree.join_batch}); it defaults to
    {!Sjos_par.Pool.get_default}, whose size is read from the
    [SJOS_DOMAINS] environment variable (1 when unset — fully serial).
    Results are bit-identical for every pool size.  The [`Legacy]
    kernel ignores it.

    Failure modes are structured: an invalid plan raises
    [Sjos_guard.Error.Error (Invalid_plan _)]; exhausting the budget —
    the deadline, the cancellation flag, or an operator output exceeding
    the tuple ceiling — raises {!Sjos_guard.Budget.Exhausted} with the
    partial tuple count preserved
    ([Tuples_materialized { limit; count }]).  [max_tuples] is merged
    into [budget] (minimum wins); both default to unlimited, which costs
    nothing on the hot path.

    [store] supplies the column storage backend candidate streams are
    read through (defaulting to a Mem store over [index], which
    reproduces the pre-{!Column_store} behavior exactly).  With a Disk
    store, the columnar engine keeps pure-tag leaf scans lazy into the
    join kernels — only the pages the skip-ahead merge examines are
    read — while predicate scans charge a full scan of their tag's
    segments.  Outputs and all counters except page/IO accounting are
    backend-independent.  Raises [Invalid_argument] if the store was
    built over a different index.

    Every operator charges the calling domain's {!Sjos_obs.Work}
    accumulator as it runs, also when the run aborts, so a
    budget-exhausted run leaves its partial work there too.

    [fetch] overrides where candidate streams come from (fault
    injection, plan hints, alternative storage tiers).  Externally
    fetched streams are verified against the document's position columns:
    an out-of-order stream, or a node id the document does not know,
    raises [Error (Corrupt_input _)] instead of silently joining
    garbage. *)

val count_matches :
  ?factors:Sjos_cost.Cost_model.factors ->
  Element_index.t ->
  Pattern.t ->
  Plan.t ->
  int
(** Convenience: execute and return the number of matches. *)
