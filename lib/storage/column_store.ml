open Sjos_xml
module Json = Sjos_obs.Json

(* ---------- configuration ---------- *)

type backend = Mem | Disk

type config = {
  backend : backend;
  page_size : int;  (* items per page; one item = one 8-byte int *)
  pool_pages : int;
}

let default_page_size = 1024
let default_pool_pages = 256

let mem =
  {
    backend = Mem;
    page_size = default_page_size;
    pool_pages = default_pool_pages;
  }

let disk ?(page_size = default_page_size) ?(pool_pages = default_pool_pages) ()
    =
  if page_size < 1 || pool_pages < 1 then
    invalid_arg "Column_store.disk: sizes must be positive";
  { backend = Disk; page_size; pool_pages }

let backend_name = function Mem -> "mem" | Disk -> "disk"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "mem" | "memory" -> Ok Mem
  | "disk" -> Ok Disk
  | other -> Error (Printf.sprintf "unknown storage backend %S" other)

(* SJOS_STORAGE=mem|disk selects the process-wide default backend;
   SJOS_PAGE_SIZE / SJOS_POOL_PAGES tune the disk pool.  Unset or
   unparsable values fall back to [mem] — the environment must never be
   able to break a run, only to redirect it. *)
let config_of_env () =
  let int_env name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt (String.trim s) with
                  | Some n when n > 0 -> n
                  | _ -> default)
    | None -> default
  in
  let backend =
    match Sys.getenv_opt "SJOS_STORAGE" with
    | Some s -> ( match backend_of_string s with Ok b -> b | Error _ -> Mem)
    | None -> Mem
  in
  {
    backend;
    page_size = int_env "SJOS_PAGE_SIZE" default_page_size;
    pool_pages = int_env "SJOS_POOL_PAGES" default_pool_pages;
  }

let config_to_json c =
  Json.Obj
    [
      ("backend", Json.Str (backend_name c.backend));
      ("page_size", Json.Int c.page_size);
      ("pool_pages", Json.Int c.pool_pages);
    ]

let pp_config ppf c =
  match c.backend with
  | Mem -> Fmt.string ppf "mem"
  | Disk ->
      Fmt.pf ppf "disk(page_size=%d, pool_pages=%d)" c.page_size c.pool_pages

(* Two configs select the same store when the backend and the pool
   geometry agree. *)
let config_equal a b =
  a.backend = b.backend && a.page_size = b.page_size
  && a.pool_pages = b.pool_pages

(* ---------- page accounting ---------- *)

(* The Disk backend models a paged column store without holding a second
   copy of the data: every tag's candidate list owns four page-aligned
   segments in the pager's page-id space, allocated in tag order,

     [tag_1.ids | tag_1.starts | tag_1.ends | tag_1.levels | tag_2.ids | ...]

   and every read charges the pages covering it through the LRU pool.
   The values themselves are always the index's resident columns
   ({!Element_index.cols}), so a pool miss costs one LRU update and
   nothing else. *)

type entry = {
  n : int;
  seg_ids : Pager.segment;
  seg_starts : Pager.segment;
  seg_ends : Pager.segment;
  seg_levels : Pager.segment;
}

type disk = {
  pager : Pager.t;
  entries : (string, entry) Hashtbl.t;
  sorted_tags : string list;
  m : Mutex.t;  (* guards the pager's LRU state and counters *)
}

type t = { index : Element_index.t; config : config; disk : disk option }

let build_disk config index =
  let pager =
    Pager.create ~page_size:config.page_size ~pool_pages:config.pool_pages ()
  in
  let tags = Element_index.tags index in
  let entries = Hashtbl.create 64 in
  List.iter
    (fun tag ->
      let n = Element_index.cardinality index tag in
      let seg () = Pager.allocate pager ~items:n in
      let seg_ids = seg () in
      let seg_starts = seg () in
      let seg_ends = seg () in
      let seg_levels = seg () in
      Hashtbl.replace entries tag
        { n; seg_ids; seg_starts; seg_ends; seg_levels })
    tags;
  { pager; entries; sorted_tags = tags; m = Mutex.create () }

let create ?(config = mem) index =
  match config.backend with
  | Mem -> { index; config; disk = None }
  | Disk -> { index; config; disk = Some (build_disk config index) }

let index t = t.index
let config t = t.config
let is_disk t = t.disk <> None
let dispose (_ : t) = ()

let io_stats t = Option.map (fun d -> Pager.stats d.pager) t.disk

let reset_io t =
  match t.disk with
  | Some d -> Mutex.protect d.m (fun () -> Pager.reset d.pager)
  | None -> ()

let page_bytes t = 8 * t.config.page_size

let pool_bytes t =
  Option.map (fun _ -> page_bytes t * t.config.pool_pages) t.disk

let total_column_bytes t =
  match t.disk with
  | Some d ->
      let pages =
        Hashtbl.fold
          (fun _ e acc ->
            acc
            + Pager.segment_pages d.pager e.seg_ids
            + Pager.segment_pages d.pager e.seg_starts
            + Pager.segment_pages d.pager e.seg_ends
            + Pager.segment_pages d.pager e.seg_levels)
          d.entries 0
      in
      Some (pages * page_bytes t)
  | None -> None

(* Charge the pages covering items [lo, hi) of one segment.  The caller
   holds [d.m]. *)
let charge d seg lo hi =
  Pager.scan_range d.pager seg ~first_item:lo ~n_items:(hi - lo)

let charge_entry d e =
  Mutex.protect d.m (fun () ->
      charge d e.seg_ids 0 e.n;
      charge d e.seg_starts 0 e.n;
      charge d e.seg_ends 0 e.n;
      charge d e.seg_levels 0 e.n)

(* ---------- materializing reads ---------- *)

(* A Disk select charges the full four-column scan of the spec's tag (a
   wildcard scans every tag) once, then serves the same in-memory
   columns the Mem backend does. *)
let charge_spec_scan t (spec : Candidate.spec) =
  match t.disk with
  | None -> ()
  | Some d ->
      let scan tag =
        Option.iter (charge_entry d) (Hashtbl.find_opt d.entries tag)
      in
      match spec.Candidate.tag with
      | Some tag -> scan tag
      | None -> List.iter scan d.sorted_tags

let select t spec =
  charge_spec_scan t spec;
  Candidate.select_cols t.index spec

let select_nodes t spec =
  charge_spec_scan t spec;
  Candidate.select t.index spec

(* ---------- lazy leaves ---------- *)

type leaf = { ld : disk; entry : entry; cols : Cols.t }

let leaf t spec =
  match t.disk with
  | Some d when Candidate.is_pure_tag spec -> (
      let tag = Option.get spec.Candidate.tag in
      match Hashtbl.find_opt d.entries tag with
      | Some e ->
          Some { ld = d; entry = e; cols = Element_index.cols t.index tag }
      | None -> None)
  | _ -> None

let leaf_length l = l.entry.n
let leaf_cols l = l.cols

let clamp l lo hi = (max 0 lo, min l.entry.n hi)

let ensure_probe l i =
  if i >= 0 && i < l.entry.n then
    Mutex.protect l.ld.m (fun () -> charge l.ld l.entry.seg_starts i (i + 1))

let ensure_meta l lo hi =
  let lo, hi = clamp l lo hi in
  if hi > lo then
    Mutex.protect l.ld.m (fun () ->
        charge l.ld l.entry.seg_starts lo hi;
        charge l.ld l.entry.seg_ends lo hi;
        charge l.ld l.entry.seg_levels lo hi)

let ensure_ids l lo hi =
  let lo, hi = clamp l lo hi in
  if hi > lo then
    Mutex.protect l.ld.m (fun () -> charge l.ld l.entry.seg_ids lo hi)

let force l = charge_entry l.ld l.entry
