(** The statistics catalog: the positional histograms of candidate sets,
    built once per database and shared by every query that needs them.

    The optimizer reads only statistics (paper §4): per pattern node, the
    cardinality and positional histogram of its candidate set, plus, for a
    parent-child edge, the same histograms sliced by level.  A catalog
    entry holds these for one [(candidate spec, grid)] pair.  An entry is
    built on first {!find}, from the spec's candidate columns
    ({!Sjos_storage.Candidate.select_cols}), never ahead of time; its
    level slices are built on first {!slices}.  Every build runs under a
    [histogram.catalog] trace span (attributes [spec], [grid], [part],
    [rows]).

    The document never changes under a catalog, so entries are never
    stale: a different grid is a different key.  The catalog is an LRU
    bounded by [capacity] entries.

    Thread-safe: any domain may {!find} concurrently, and each entry (and
    each entry's slices) is built exactly once while it stays cached.
    Counters are always maintained ({!stats}) and mirrored into
    {!Sjos_obs.Registry} counters ([histogram.catalog_builds],
    [histogram.catalog_hits], [histogram.catalog_slice_builds],
    [histogram.catalog_evictions]) when the registry is enabled. *)

open Sjos_storage

type t

val create : capacity:int -> Element_index.t -> t
(** An empty catalog over an index.  Raises [Invalid_argument] when
    [capacity < 1]. *)

type entry

val find : t -> grid:int -> Candidate.spec -> entry
(** The entry of a spec at a grid resolution, built if absent.  A miss
    counts as a build, a cached entry as a hit. *)

val cardinality : entry -> float
(** Size of the spec's candidate set. *)

val histogram : entry -> Position_histogram.t

val slices : t -> entry -> Position_histogram.slices
(** The entry's per-level histograms, built on first use. *)

type stats = {
  builds : int;  (** entries built (one per miss) *)
  slice_builds : int;  (** level-slice sets built *)
  hits : int;  (** lookups answered by a cached entry *)
  evictions : int;
  entries : int;
  capacity : int;
}

val stats : t -> stats
