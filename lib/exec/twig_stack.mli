(** Columnar holistic twig join — TwigStack (Bruno, Koudas, Srivastava,
    SIGMOD 2002) as a second physical algebra next to the binary
    Stack-Tree plans.

    One pass over all candidate streams in global document order
    maintains a linked int-indexed stack per pattern node (flat arrays,
    [stride] ints per entry — no boxing on the hot path), appends path
    solutions to flat per-leaf column blocks, then merge-joins the
    blocks on their shared root-path prefixes.  Match sets are identical
    to the binary plans and to the reference {!Twig_join} oracle; the
    output is in canonical order (lexicographic by slot value, i.e.
    document order of the pattern root first).

    Streams arrive as {!Stack_tree.input}s, so lazy disk-backed
    {!Sjos_storage.Column_store} leaves fault pages only as the merged
    cursor front demands, and skip-ahead — dropping a stream whose
    pattern parent can never match again, and galloping a child stream
    up to its parent's front — works identically over both backends,
    counted in {!Sjos_obs.Work.t.items_skipped}.

    Counter contract, all charged to the calling domain's
    {!Sjos_obs.Work}: [stack_ops] (pushes + expired pops), [io_items]
    (2 per path solution, the TwigStack intermediate-list write+read),
    [tuples_emitted] (path solutions + merge emissions),
    [sorted_items]/[sort_cost] (prefix-merge and canonical orderings,
    accounted like the algebra's Sort operator) and [comparisons],
    like the binary kernels.  Comparisons
    price decisions only — merged-cursor advances, parent-stack scans,
    child-axis predicates, merge key tests; descendant-axis expansion
    is bulk emission and, like the binary kernels' pair emission, costs
    none.  The pass is serial, so every counter is invariant under
    [SJOS_DOMAINS]. *)

open Sjos_xml
open Sjos_pattern
open Sjos_guard

val run :
  ?budget:Budget.t ->
  doc:Document.t ->
  pat:Pattern.t ->
  inputs:Stack_tree.input array ->
  unit ->
  Batch.t
(** [run ~doc ~pat ~inputs ()] — the holistic match of [pat],
    given one candidate stream per pattern node ([inputs.(i)] binds slot
    [i] of a width-[node_count] row; document order, distinct elements).

    Raises [Invalid_argument] when the inputs do not form one candidate
    stream per node, and {!Budget.Exhausted} (via polls every 256
    arrivals and per materialized solution) when [budget] runs out. *)

val run_tuples :
  ?budget:Budget.t ->
  doc:Document.t ->
  pat:Pattern.t ->
  inputs:Stack_tree.input array ->
  unit ->
  Tuple.t array
(** {!run} unpacked to the boxed tuple surface. *)
