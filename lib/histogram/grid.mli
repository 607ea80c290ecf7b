(** A 2-D counting grid with inclusive rectangular range sums in O(1)
    via prefix sums.  Shared by the positional histograms. *)

type t

val create : int -> t
(** [create g] — a [g × g] grid of zero counts.  Raises [Invalid_argument]
    for [g < 1]. *)

val size : t -> int
val add : t -> int -> int -> unit
(** [add t i j] increments cell [(i, j)].  Bounds-checked. *)

val get : t -> int -> int -> float
val total : t -> float

val seal : t -> unit
(** Turn the counts into prefix sums, in place.  Must be called after
    the last {!add}; calling {!add} afterwards raises [Invalid_argument].
    Idempotent. *)

val range_sum : t -> i0:int -> i1:int -> j0:int -> j1:int -> float
(** Inclusive rectangle sum; empty when [i0 > i1] or [j0 > j1]; indexes are
    clamped to the grid.  Requires {!seal}. *)
