(** Cardinality estimation for pattern sub-trees ("clusters").

    The optimizer prices a structural join from three numbers: the
    cardinality of each input cluster and of the output cluster.  A cluster
    is a connected set of pattern nodes, identified by a bit mask (bit [i]
    set = pattern node [i] belongs to the cluster).

    The estimate composes per-edge selectivities from the positional
    histograms bottom-up over the cluster's tree:
    [m(u) = |u| * prod over cluster children c of u (sel(u,c) * m(c))],
    which assumes edge independence — the standard System-R style
    assumption, here with structural selectivities. *)

open Sjos_pattern

type t

val create : ?grid:int -> Catalog.t -> Pattern.t -> t
(** A cluster estimator reading its statistics from the catalog at
    resolution [grid] (default 32).  Creating one touches no candidate
    set: each pattern node's catalog entry is looked up on first use, and
    cluster estimates are memoized.  Not for concurrent use; the catalog
    underneath is. *)

val pattern : t -> Pattern.t

val prefetch : t -> unit
(** Fetch (building if absent) every catalog statistic an estimate of the
    whole pattern reads: each node's entry and both ends' level slices of
    each parent-child edge.  Called ahead of an optimizer search, so the
    search itself never builds a histogram. *)

val node_card : t -> int -> float
(** Candidate-set cardinality of a pattern node. *)

val edge_pairs : t -> Pattern.edge -> float
(** Estimated structural-join result size of a single pattern edge. *)

val edge_selectivity : t -> Pattern.edge -> float

val cluster_card : t -> int -> float
(** [cluster_card t mask] — estimated number of matches of the sub-pattern
    induced by [mask].  Raises [Invalid_argument] if [mask] is empty or not
    connected in the pattern tree. *)

val full_mask : t -> int
val cluster_root : Pattern.t -> int -> int
(** The member of the cluster closest to the pattern root.  Raises
    [Invalid_argument] on an empty mask. *)

val is_connected : Pattern.t -> int -> bool
(** Is the induced sub-pattern connected? *)
