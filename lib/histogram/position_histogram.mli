(** Positional histograms (Wu, Patel, Jagadish — EDBT 2002), the statistic
    Timber uses to estimate structural-join result sizes.

    Each candidate set is summarized by a [g × g] grid over the document's
    position space: a node with interval [(start, end)] falls in cell
    [(bucket start, bucket end)].  Because [start < end], only the upper
    triangle is populated.  Join-size estimates reduce to rectangle sums
    over the grid (see {!Estimator}).

    Histograms are built from a candidate set's flat columns
    ({!Sjos_storage.Candidate.select_cols}) in one pass over its rows. *)

type t

val build : ?grid:int -> max_pos:int -> Sjos_storage.Cols.t -> t
(** Summarize a candidate set.  [grid] defaults to 32.  [max_pos] is the
    extent of the document's position space
    ({!Sjos_xml.Document.max_pos}). *)

type slices
(** A candidate set partitioned by level, one histogram per level that
    occurs: the input of the level-sliced parent-child estimate
    ({!Estimator.parent_child_by_level}). *)

val build_slices : ?grid:int -> max_pos:int -> Sjos_storage.Cols.t -> slices
(** All level slices of a candidate set in one pass.  Each slice equals
    {!build} of the rows at that level. *)

val slice : slices -> int -> t option
(** The histogram of the rows at a level, if any row has it. *)

val slice_order : slices -> int array
(** The levels present, in the order estimates sum over them.  The order
    is fixed (it keeps estimates bit-identical across releases), not
    ascending. *)

val grid_size : t -> int
val cardinality : t -> float
val bucket : t -> int -> int
(** Bucket index of a position. *)

val count_in : t -> i0:int -> i1:int -> j0:int -> j1:int -> float
(** Inclusive rectangle sum over (start-bucket, end-bucket) cells. *)

val cell : t -> int -> int -> float

val containment_mass : t -> int -> int -> float
(** For a diagonal cell [(i, i)], the summed probability that a node of
    this set contains another node whose start falls uniformly in the same
    cell: [sum over nodes min(1, width / bucket_span)].  Containment is
    linear in the width because intervals of one document either nest or
    are disjoint — if a start falls strictly inside a wider interval, the
    whole node is contained.  Replaces the naive 1/4 same-cell heuristic,
    which wildly overestimates containment in flat documents where most
    intervals are far narrower than a bucket.  Zero for off-diagonal
    cells. *)

val level_counts : t -> float array
(** Histogram of node levels, index = level.  Used to refine
    ancestor-descendant estimates into parent-child estimates. *)
