(** Backend-polymorphic column storage for candidate lists.

    Every query reads its per-tag candidate columns ({!Cols.t}) through
    this one API.  Two backends implement it:

    - {b Mem} — the element index's cached flat arrays, no page
      accounting.  The default.
    - {b Disk} — a simulated paged column store: page accounting over
      the same resident columns.  At creation every tag's
      [(id, start, end, level)] columns are laid out as four
      page-aligned segments of the LRU {!Pager}'s page-id space, and
      every read charges the pages covering it as hits or misses.  Reads
      are lazy: a query touches only the tags, columns and page ranges
      its joins actually examine, which is what lets the skip-ahead join
      kernels turn skipped input runs into avoided page misses.  The
      values always come from {!Element_index.cols}; a miss costs an LRU
      update, not a read.

    Outputs and all work counters except [page_touches]/IO statistics
    are therefore bit-identical across backends — the differential
    property [test/test_store.ml] locks down.

    Thread-safety: the pager's LRU state and counters are guarded by one
    per-store mutex, held only for the bookkeeping of one charge (one
    acquisition per [ensure_*] call).  Safe under any [SJOS_DOMAINS]. *)

open Sjos_xml

(** {1 Configuration} *)

type backend = Mem | Disk

type config = {
  backend : backend;
  page_size : int;  (** items (8-byte ints) per page *)
  pool_pages : int;  (** resident pages in the LRU pool *)
}

val default_page_size : int
(** 1024 items = 8 KiB pages. *)

val default_pool_pages : int
(** 256 pages = 2 MiB pool. *)

val mem : config
(** The Mem backend (page/pool fields are carried but unused). *)

val disk : ?page_size:int -> ?pool_pages:int -> unit -> config
(** A Disk configuration.  Raises [Invalid_argument] on non-positive
    sizes. *)

val backend_of_string : string -> (backend, string) result
val backend_name : backend -> string

val config_of_env : unit -> config
(** The process-wide default: [SJOS_STORAGE=mem|disk] selects the
    backend (mem when unset or unparsable), [SJOS_PAGE_SIZE] and
    [SJOS_POOL_PAGES] tune the pool. *)

val config_equal : config -> config -> bool
val config_to_json : config -> Sjos_obs.Json.t
val pp_config : config Fmt.t

(** {1 Stores} *)

type t

val create : ?config:config -> Element_index.t -> t
(** [create ~config index] — for [Disk], allocates each tag's column
    segments in a fresh, cold buffer pool (one pass over the tag list;
    no column is copied). *)

val index : t -> Element_index.t
val config : t -> config
val is_disk : t -> bool

val io_stats : t -> Pager.stats option
(** The buffer pool's access/hit/miss/eviction counters ([None] for
    Mem).  Misses are the page reads a paged store would perform. *)

val reset_io : t -> unit
(** Cold-start the pool ({!Pager.reset}): statistics zeroed, every page
    non-resident.  No-op for Mem. *)

val pool_bytes : t -> int option
(** The modelled pool capacity in bytes (8-byte items); [None] for Mem. *)

val total_column_bytes : t -> int option
(** The modelled size of every column segment in bytes, page-padded;
    [None] for Mem. *)

val dispose : t -> unit
(** Does nothing: a store holds no resource beyond its heap values.
    Kept for callers that scope a store's lifetime. *)

(** {1 Materializing reads}

    These return the resident columns.  On Disk they charge the full
    sequential scan of every column segment they cover — this is the
    full-scan baseline the lazy leaves are measured against. *)

val select : t -> Candidate.spec -> Cols.t
(** Candidate columns for a spec.  On Disk, charges the full scan of
    the spec's tag's segments once (a wildcard scans every tag); results
    are bit-identical to the Mem backend. *)

val select_nodes : t -> Candidate.spec -> Node.t array
(** Node-array counterpart of {!select} for the legacy engine; same
    charging. *)

(** {1 Lazy leaves}

    A leaf is a handle on one tag's resident columns whose page
    accounting is driven by the reader.  The join kernels charge it
    range-by-range: group metadata ([starts]/[ends]/[levels]) for groups
    actually examined, single [starts] probes for gallop skip-ahead, and
    [ids] only for rows that reach the output.  A reader calls the
    [ensure_*] covering a slot before reading it, so the charges model
    exactly what a paged store would have had to read. *)

type leaf

val leaf : t -> Candidate.spec -> leaf option
(** [Some] only on Disk for a pure-tag spec (no attribute/text
    predicate) of a known tag; callers fall back to {!select}
    otherwise. *)

val leaf_length : leaf -> int
(** Number of candidate rows — no page charge. *)

val leaf_cols : leaf -> Cols.t
(** The tag's resident columns ({!Element_index.cols}); do not
    mutate.  Reading them charges nothing — call the covering
    [ensure_*] first. *)

val ensure_probe : leaf -> int -> unit
(** Charge [starts.(i)] — one page touch; the gallop probe. *)

val ensure_meta : leaf -> int -> int -> unit
(** Charge [starts], [ends] then [levels] for item range [\[lo, hi)]
    (clamped to the leaf), under one lock acquisition. *)

val ensure_ids : leaf -> int -> int -> unit
(** Charge [ids] for item range [\[lo, hi)] (clamped). *)

val force : leaf -> unit
(** Charge the full scan of all four columns. *)
