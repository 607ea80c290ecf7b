(** The original list-based Stack-Tree kernels, kept verbatim as the
    executable reference for the columnar engine.

    {!Stack_tree} reimplements both variants over flat columns with
    skip-ahead; this module preserves the group-list implementation so
    that differential tests ([test/test_batch.ml]) and the
    [bench/perf.ml] old-vs-new benchmark can assert, on randomized
    inputs, that the two engines produce identical tuple arrays (same
    tuples, same order) and identical join/IO accounting.  Apart from
    {!Sjos_obs.Work.t.items_skipped} (always [0] here), every counter
    must match the columnar kernels exactly.

    Do not use this from new execution paths — it is the slow baseline. *)

open Sjos_xml
open Sjos_plan

val join :
  ?budget:Sjos_guard.Budget.t ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:Tuple.t array * int ->
  desc:Tuple.t array * int ->
  unit ->
  Tuple.t array
(** Same contract as {!Stack_tree.join}. *)
