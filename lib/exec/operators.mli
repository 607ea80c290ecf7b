(** The non-join physical operators: index scan and sort, in both the
    classic tuple-array flavor and the columnar batch flavor.  Each
    charges the calling domain's {!Sjos_obs.Work} accumulator. *)

open Sjos_xml
open Sjos_storage

val index_scan : width:int -> slot:int -> Node.t array -> Tuple.t array
(** Turn a document-ordered candidate array into single-binding tuples.
    Charges one [candidates_scanned] per candidate. *)

val index_scan_batch : width:int -> slot:int -> Cols.t -> Batch.t
(** The columnar equivalent: binds the candidate [ids] column directly
    into batch rows without materializing per-tuple arrays.  Same
    accounting as {!index_scan}. *)

val charge_sort : Sjos_obs.Work.t -> int -> unit
(** [charge_sort w n] accounts one sort of [n] items: [n] to
    [sorted_items] and [n log2 n] to [sort_cost]. *)

val sort :
  ?budget:Sjos_guard.Budget.t ->
  doc:Document.t ->
  by:int ->
  Tuple.t array ->
  Tuple.t array
(** Stable sort of tuples by the document order of the node bound in slot
    [by]; accounts [n log2 n] sort cost.  This is the blocking operator:
    plans that contain it cannot pipeline.  The budget's deadline and
    cancellation flag are checked once before sorting (the sort itself is
    bounded by its already-materialized input).  Since the batch engine,
    keys are precomputed from the document's [starts] column and an index
    permutation is sorted with a monomorphic int comparator — no
    [Document.node] calls inside the comparator. *)

val sort_batch :
  ?budget:Sjos_guard.Budget.t ->
  doc:Document.t ->
  by:int ->
  Batch.t ->
  Batch.t
(** {!sort} over a columnar batch ({!Batch.sort}); same accounting. *)

val sort_legacy :
  ?budget:Sjos_guard.Budget.t ->
  doc:Document.t ->
  by:int ->
  Tuple.t array ->
  Tuple.t array
(** The pre-batch-engine sort: [Array.stable_sort] with a comparator that
    dereferences [Document.node] per comparison.  Kept as the measured
    baseline for [bench/perf.ml] and the legacy executor kernel; same
    accounting as {!sort}. *)
