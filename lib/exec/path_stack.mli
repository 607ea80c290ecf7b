(** PathStack — a holistic (multi-way) structural join for path patterns
    (Bruno, Koudas, Srivastava: "Holistic Twig Joins", SIGMOD 2002).

    The paper lists multi-way structural joins as future work for its
    optimizer (§6); this module implements the path case as an extension
    and ablation baseline: instead of composing binary Stack-Tree joins,
    all candidate streams are merged in one pass over a chain of linked
    stacks, so no intermediate result is ever materialized.

    Parent-child ([/]) edges are handled by post-filtering emitted paths on
    levels, the standard simplification (PathStack is I/O-optimal only for
    ancestor-descendant edges).

    Limitations: the pattern must be a simple path ({!Sjos_pattern.Pattern.is_path});
    branching twigs would require the full TwigStack merge phase. *)

open Sjos_storage
open Sjos_pattern

val run : Element_index.t -> Pattern.t -> Tuple.t array
(** Evaluate a path pattern holistically, charging the calling domain's
    {!Sjos_obs.Work}.  The result contains exactly the pattern's matches,
    ordered by the leaf (deepest) pattern node.  Raises
    [Invalid_argument] if the pattern is not a path. *)

val count : Element_index.t -> Pattern.t -> int
(** Number of matches of {!run}. *)
