(** The engine façade: an in-memory XML database that ties together
    storage, statistics, optimization and execution — the role Timber plays
    in the paper.

    The primary query interface is {e prepared queries}: {!prepare}
    canonicalizes the pattern ({!Sjos_pattern.Fingerprint}), picks a plan —
    consulting the database's LRU plan cache first, so repeated structures
    skip the optimizer search entirely — and returns a handle off which
    {!exec}, {!explain_prepared} and {!analyze_prepared} run.

    {[
      let db = Database.of_document doc in
      let pat = Sjos_pattern.Parse.pattern "manager(//employee(/name))" in
      let p = Database.prepare db pat in
      let run = Database.exec p in          (* cold: optimizer searched *)
      let run' = Database.exec p in         (* warm: plan reused *)
      Fmt.pr "%d matches (fingerprint %s)@."
        (Array.length run'.exec.tuples)
        (Database.prepared_fingerprint p)
    ]}

    Per-query knobs travel in a {!Query_opts.t}. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_core
open Sjos_exec

type t

val of_document :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?grid:int ->
  ?cache_capacity:int ->
  ?storage:Column_store.config ->
  Document.t ->
  t
(** Index a document and prepare it for querying.  [grid] is the
    positional-histogram resolution (default 32); [cache_capacity] bounds
    the plan cache and the statistics catalog (default 256 entries
    each).

    [storage] selects the column storage backend queries read candidate
    streams through, defaulting to
    {!Sjos_storage.Column_store.config_of_env} ([SJOS_STORAGE=mem|disk],
    mem when unset).  A [Disk] store allocates its page segments at
    this point — one pass over the tag list. *)

val of_string :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?grid:int ->
  ?cache_capacity:int ->
  ?storage:Column_store.config ->
  string ->
  t
(** Parse XML text and index it. *)

val load_file :
  ?factors:Sjos_cost.Cost_model.factors ->
  ?grid:int ->
  ?cache_capacity:int ->
  ?storage:Column_store.config ->
  string ->
  t

val document : t -> Document.t
val index : t -> Element_index.t

val store : t -> Column_store.t
(** The database's column store — inspect {!Column_store.io_stats} after
    Disk-backed runs, or {!Column_store.reset_io} to cold-start the
    pool. *)

val dispose : t -> unit
(** Forget the memoized per-query override stores.  Stores hold no
    resource beyond their heap values, so this only lets their pools be
    collected; the database stays fully usable (a later override builds
    a fresh, cold store).  Idempotent. *)

val stats : t -> Stats.t
(** Document statistics, computed once on first use (mutex-guarded memo —
    safe to race from several domains). *)

val warm : t -> unit
(** Pre-build every lazily cached read-side structure (document position
    columns, per-tag candidate columns, statistics), so queries fanned
    out across domains afterwards touch only read paths.  Idempotent;
    purely a scheduling hint — parallel queries are correct without it. *)

val factors : t -> Sjos_cost.Cost_model.factors
val grid : t -> int

val set_factors : t -> Sjos_cost.Cost_model.factors -> unit
(** Change the database's cost factors.  Bumps the plan-cache epoch: every
    cached plan was chosen under the old statistics and is invalidated. *)

val set_grid : t -> int -> unit
(** Change the histogram grid resolution.  Also bumps the epoch. *)

val invalidate_plans : t -> unit
(** Bump the plan-cache epoch without changing configuration (e.g. tests,
    or after external document mutation). *)

val plan_cache : t -> Sjos_cache.Plan_cache.t
(** The database's plan cache, for stats inspection. *)

val catalog : t -> Sjos_histogram.Catalog.t
(** The database's statistics catalog: positional histograms per
    (candidate spec, grid), built on first use and shared by every query
    (inspect {!Sjos_histogram.Catalog.stats}). *)

val provider : t -> Pattern.t -> Sjos_plan.Costing.provider
(** Histogram-backed cardinality provider for a pattern, reading the
    {!catalog} at the database's grid.  Creating it touches no candidate
    set; estimates are memoized for the lifetime of the call result. *)

(** {1 Prepared queries} *)

type prepared
(** A pattern bound to a database with its options, fingerprint, memoized
    cardinality provider and chosen plan.  Re-executing a prepared query
    costs no optimizer search; if the database's configuration changes
    after preparation, the handle transparently re-optimizes on next use. *)

val prepare : ?opts:Query_opts.t -> t -> Pattern.t -> prepared
(** Canonicalize, fingerprint and optimize (through the plan cache when
    [opts.use_cache], the default).  [opts] defaults to
    {!Query_opts.default}.

    When [opts.chaos] is set, the query does not draw faults from the
    caller's instance directly: an independent child stream is derived
    from it, keyed on the query fingerprint
    ({!Sjos_guard.Chaos.derive}), so the faults a query sees depend only
    on (seed, query) — replayable regardless of query order or of the
    domain scheduling of a parallel workload.  Injection totals still
    accumulate on the caller's instance. *)

type query_run = { opt : Optimizer.result; exec : Executor.run }

val exec : prepared -> query_run
(** Execute the prepared plan.  [opt] is the resolution that produced the
    plan: a cache hit reports zero search effort and only the lookup time
    as [opt_seconds]. *)

val explain_prepared : prepared -> string
(** The prepared plan, rendered with estimated cardinalities and costs. *)

type analysis = {
  opt : Optimizer.result;
  exec : Executor.run;
  rows : Sjos_plan.Explain.analysis_row list;
      (** one row per plan operator, pre-order *)
}

val analyze_prepared : prepared -> analysis
(** EXPLAIN ANALYZE off the handle: execute and compare the optimizer's
    estimates against measured per-operator cardinalities, cost units and
    wall time.  Render with {!Sjos_plan.Explain.analyze_to_string} or
    {!Sjos_plan.Explain.analysis_to_json}. *)

val prepared_result : prepared -> Optimizer.result
val prepared_pattern : prepared -> Pattern.t
val prepared_opts : prepared -> Query_opts.t

val prepared_fingerprint : prepared -> string
(** Structural fingerprint of the pattern — the cache-key component. *)

val prepared_from_cache : prepared -> bool
(** Did the most recent plan resolution hit the cache? *)

val run : ?opts:Query_opts.t -> t -> Pattern.t -> query_run
(** [prepare] + [exec] in one call — the normal one-shot entry point. *)

val execute_plan :
  ?budget:Sjos_guard.Budget.t ->
  ?max_tuples:int ->
  ?pool:Sjos_par.Pool.t ->
  t ->
  Pattern.t ->
  Sjos_plan.Plan.t ->
  Executor.run
(** Execute an externally supplied plan ("plan hints"); bypasses the
    optimizer and the cache. *)

(** {1 Result-returning surface}

    The same pipeline with every failure mode as a value: parse/knob
    problems, invalid plans, budget exhaustion that no degradation tier
    absorbed, corruption detected at a trust boundary — all come back as
    a {!Sjos_guard.Error.t} instead of an exception.  The raising
    functions above are thin wrappers retained for compatibility; these
    are the entry points services should use. *)

val prepare_r :
  ?opts:Query_opts.t ->
  t ->
  Pattern.t ->
  (prepared, Sjos_guard.Error.t) result

val exec_r : prepared -> (query_run, Sjos_guard.Error.t) result
(** Budget exhaustion during execution preserves the partial tuple count
    in [Budget_exhausted { resource = Tuples_materialized _; _ }]. *)

val run_r :
  ?opts:Query_opts.t ->
  t ->
  Pattern.t ->
  (query_run, Sjos_guard.Error.t) result
(** [prepare_r] + [exec_r] in one call.  With a budget in [opts], an
    exact optimizer search that blows its budget transparently degrades
    to DPAP-EB (see {!Sjos_core.Optimizer.optimize_r}); check
    [(run.opt).degraded_from] to detect it. *)

val analyze_prepared_r : prepared -> (analysis, Sjos_guard.Error.t) result
