(** Deterministic work accounting: machine-independent counters whose
    totals are bit-identical for a given query workload regardless of
    wall-clock noise, domain count, or scheduling.

    This is the currency the perf-history CI gate trades in.  Wall-clock
    seconds on a shared CI box swing by 2-3x; the number of containment
    comparisons a join performs, tuples it emits, candidate rows it
    scans, statuses the optimizer expands and pages the pager touches do
    not.  Every counter is {e partition-invariant}: running the same
    work sharded across N domains charges exactly the same totals as the
    serial loop (the kernels' drain accounting guarantees this for the
    sharded Stack-Tree merge, and {!Sjos_par.Pool.run} merges each
    task's delta into the caller at the barrier).

    Counters are always on — like {!Effort}, they are plain mutable
    fields owned by the calling domain, so charging work costs one field
    write and determinism can never depend on whether observability was
    enabled.  The execution kernels charge this record directly; there
    is no second executor-side counter set. *)

type t = {
  mutable comparisons : int;
      (** ancestor-stack entries examined per descendant visit in the
          Stack-Tree merge — identical for the columnar and legacy
          kernels, and across any sharding *)
  mutable tuples_emitted : int;  (** join output tuples *)
  mutable items_skipped : int;
      (** input items skip-ahead jumped over (columnar kernels only) *)
  mutable candidates_scanned : int;  (** candidate rows produced by scans *)
  mutable stack_ops : int;  (** Stack-Tree push+pop operations *)
  mutable io_items : int;  (** tuples buffered by Stack-Tree-Anc *)
  mutable sorted_items : int;  (** tuples passed through sorts *)
  mutable expansions : int;  (** optimizer status expansions ({!Effort}) *)
  mutable plans_considered : int;  (** alternative plans costed *)
  mutable page_touches : int;  (** buffer-pool page accesses ({!Pager}) *)
  mutable sort_cost : float;
      (** accumulated [n log2 n] terms of the sorts executed — the one
          non-integer quantity the cost model prices; not part of
          {!fields}, {!score} or {!equal} *)
}

val current : unit -> t
(** The calling domain's accumulator.  Hot paths hoist this once and
    mutate fields directly. *)

val reset : unit -> unit
(** Zero the calling domain's accumulator. *)

val zero : unit -> t
val copy : t -> t

val snapshot : unit -> t
(** An immutable copy of the calling domain's current totals. *)

val diff : after:t -> before:t -> t
val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s counts into [dst]. *)

val absorb : t -> unit
(** Add the given counts into the calling domain's accumulator.  The
    domain pool calls this at its barrier with each task's delta. *)

val scoped : (unit -> 'a) -> t * ('a, exn) result
(** Run the thunk against a fresh accumulator, restore the previous one,
    and return the work the thunk charged — even when it raised.  The
    charged work is {e not} added to the outer accumulator; the caller
    decides where it goes ({!absorb}). *)

val measure : (unit -> 'a) -> 'a * t
(** [measure f] runs [f] in a {!scoped} accumulator, {!absorb}s the
    charged work back into the caller's, and returns the result with
    that work.  If [f] raises, the work is still absorbed and the
    exception re-raised. *)

val fields : t -> (string * int) list
(** The integer counters, in declaration order ([sort_cost] excluded). *)

val equal : t -> t -> bool
(** Every integer counter equal.  [sort_cost] is not compared: its total
    is a float sum whose last bits depend on the order deltas were
    absorbed in, e.g. across domain counts. *)

val is_zero : t -> bool

val score : t -> int
(** The single work-unit figure the perf gate compares: the sum of every
    counter except [items_skipped] and [plans_considered] (skipping is
    avoided work; considered plans are a subset of expansion effort). *)

val core_score : t -> int
(** {!score} minus the IO counters ([io_items], [page_touches]) — the
    storage-independent slice.  The column-store differential tests
    require Mem and Disk runs to agree on this exactly, while the IO
    counters are what the backends are {e supposed} to change. *)

val equal_mod_io : t -> t -> bool
(** {!equal} ignoring [io_items] and [page_touches]. *)

val to_json : t -> Json.t
(** Every field plus the derived ["score"]. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json} (the ["score"] field is ignored; a missing
    ["sort_cost"] reads as [0.0]). *)

val publish : ?prefix:string -> t -> unit
(** Copy the counters into the metrics registry as [work.comparisons]
    etc. (no-op while the registry is disabled). *)

val pp : t Fmt.t

(** {2 GC deltas}

    Allocation and collection counts ride along with work snapshots in
    bench reports.  They are process-global and deterministic only for
    serial runs of a deterministic program, so the perf gate treats them
    with a looser threshold than work units, and wall-clock stays purely
    advisory. *)

type gc_snapshot = {
  allocated_bytes : float;
  minor_collections : int;
  major_collections : int;
}

val gc_snapshot : unit -> gc_snapshot
val gc_diff : after:gc_snapshot -> before:gc_snapshot -> gc_snapshot
val gc_to_json : gc_snapshot -> Json.t
