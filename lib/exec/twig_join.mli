(** Holistic twig join for arbitrary tree patterns, after TwigStack
    (Bruno, Koudas, Srivastava — SIGMOD 2002), the multi-way join the
    paper's §6 names as future work for its optimizer.

    Phase 1 streams every candidate set in global document order through a
    hierarchy of linked stacks (one per pattern node, linked along pattern
    edges) and emits {e path solutions} — matches of each root-to-leaf
    pattern path — without materializing any other intermediate result.
    Phase 2 merge-joins the per-leaf path solutions on their shared prefix
    nodes to assemble full twig matches.

    Compared to the original TwigStack, phase 1 processes elements in plain
    global document order instead of using the [getNext] look-ahead; this
    keeps the algorithm correct for both axes (parent-child edges are
    post-filtered, as in PathStack) at the price of possibly emitting path
    solutions that do not survive the merge — the original's I/O-optimality
    guarantee only holds for descendant-only twigs anyway.

    Path solutions are charged as buffered IO to {!Sjos_obs.Work} (they
    must be materialized for the merge), so the ablation against binary
    Stack-Tree plans is a fair fight in cost units. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_guard

val run :
  ?budget:Budget.t ->
  ?candidates:(int -> Node.t array) ->
  Element_index.t ->
  Pattern.t ->
  Tuple.t array
(** Evaluate any tree pattern holistically.  Result tuples are full
    matches, in no guaranteed order.

    [budget] (default unlimited) is polled every 256 streamed arrivals
    and charged per materialized path solution and per merged batch,
    raising {!Budget.Exhausted}.  [candidates] overrides the per-node
    candidate streams (indexed by pattern node); external streams are
    verified — every id must exist in the document and starts must be
    nondecreasing — raising {!Error.Corrupt_input} otherwise.  This
    kernel is the reference oracle for {!Twig_stack}. *)

val count : Element_index.t -> Pattern.t -> int
(** Number of matches of {!run}. *)

val path_solutions :
  ?budget:Budget.t ->
  ?candidates:(int -> Node.t array) ->
  Element_index.t ->
  Pattern.t ->
  (int * Tuple.t list) list
(** Phase 1 only: for each leaf pattern node, the matches of its
    root-to-leaf path (tuples bind exactly the path's nodes).  Exposed for
    testing and for callers that want the intermediate representation.
    Same [budget]/[candidates] contract as {!run}. *)
