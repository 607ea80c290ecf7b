(** A paged storage manager with an LRU buffer pool — the role SHORE
    plays under Timber in the paper's experimental setup (16 MB buffer
    pool, §4).

    Candidate lists and materialized intermediate results live in
    fixed-size pages; every access goes through the pool and is accounted
    as a hit or a miss (a miss evicts the least-recently-used resident
    page).  The executor's abstract [f_IO] factor is grounded here: one
    miss = one page read.

    The pager holds no data: it only decides {e which} accesses are
    misses.  {!Column_store}'s [Disk] backend lays every tag's columns
    out as segments here and charges each read through {!scan_range},
    while the values stay in the resident in-memory columns — a miss is
    an accounting event (the read a paged store would perform), not IO.

    Every access charges one [Work.page_touches] unit.  The batch entry
    points fetch the calling domain's accumulator once per call, not once
    per page, so per-page accounting costs one field increment. *)

type t

val create : ?page_size:int -> pool_pages:int -> unit -> t
(** [create ~pool_pages ()] — a pool holding [pool_pages] resident pages of
    [page_size] items each (default 256 items/page).
    Raises [Invalid_argument] for non-positive sizes. *)

val page_size : t -> int

type segment
(** A contiguous run of pages holding a known number of items. *)

val allocate : t -> items:int -> segment
(** Allocate a segment (e.g. one tag's candidate list, or a materialized
    intermediate result). *)

val segment_pages : t -> segment -> int

val scan : t -> segment -> unit
(** Touch all pages of a segment in order — a full sequential scan. *)

val scan_range : t -> segment -> first_item:int -> n_items:int -> unit
(** Touch the pages covering an item range.  Raises [Invalid_argument] if
    the range exceeds the segment. *)

type stats = { accesses : int; hits : int; misses : int; evictions : int }

val stats : t -> stats
val reset_stats : t -> unit

val reset : t -> unit
(** {!reset_stats} plus dropping every resident page: the pool becomes
    cold (the next access to any page is a miss) while keeping its
    segment allocations.  Benches use this to re-measure miss counts
    without rebuilding a store. *)

val hit_ratio : t -> float
(** [hits / accesses]; [0.] before any access. *)

val resident_pages : t -> int
