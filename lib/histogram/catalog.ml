open Sjos_storage
open Sjos_obs
open Sjos_cache

type entry = {
  spec : Candidate.spec;
  grid : int;
  (* Guards the two memos below: the first [find] of a spec builds its
     histogram while later ones (from any domain) wait on this lock, so
     each is built exactly once.  Not a [Lazy.t]: forcing a lazy from two
     domains at once raises [CamlinternalLazy.Undefined]. *)
  m : Mutex.t;
  mutable hist : Position_histogram.t option;
  mutable slices : Position_histogram.slices option;
}

type stats = {
  builds : int;
  slice_builds : int;
  hits : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type t = {
  index : Element_index.t;
  lru : entry Lru.t;
  (* Serializes lookup-or-insert and the counters; never held while a
     histogram is built. *)
  m : Mutex.t;
  mutable max_pos : int option;
  mutable builds : int;
  mutable slice_builds : int;
  mutable hits : int;
  mutable evictions : int;
}

let create ~capacity index =
  {
    index;
    lru = Lru.create ~capacity;
    m = Mutex.create ();
    max_pos = None;
    builds = 0;
    slice_builds = 0;
    hits = 0;
    evictions = 0;
  }

(* Injective: [%S] quotes and escapes, and no quoted field is "-". *)
let key ~grid (spec : Candidate.spec) =
  let opt = function None -> "-" | Some s -> Printf.sprintf "%S" s in
  let attr =
    match spec.Candidate.attr with
    | None -> "-"
    | Some (k, v) -> Printf.sprintf "%S=%S" k v
  in
  Printf.sprintf "%d|%s|%s|%s" grid (opt spec.Candidate.tag) attr
    (opt spec.Candidate.text)

let observe name =
  if Registry.enabled () then Registry.incr (Registry.counter name)

let max_pos t =
  Mutex.protect t.m (fun () ->
      match t.max_pos with
      | Some p -> p
      | None ->
          let p = Sjos_xml.Document.max_pos (Element_index.document t.index) in
          t.max_pos <- Some p;
          p)

(* Read the spec's candidate columns and summarize them under a
   [histogram.catalog] span, so catalog construction is timed apart from
   the optimizer search that asked for it. *)
let build_traced t (e : entry) ~part summarize =
  let max_pos = max_pos t in
  let span =
    Trace.begin_span "histogram.catalog"
      ~attrs:
        [
          ("spec", Json.Str (Candidate.spec_to_string e.spec));
          ("grid", Json.Int e.grid);
          ("part", Json.Str part);
        ]
  in
  Fun.protect
    ~finally:(fun () -> Trace.end_span span)
    (fun () ->
      let cols = Candidate.select_cols t.index e.spec in
      Trace.add_attr span "rows" (Json.Int (Cols.length cols));
      summarize ~grid:e.grid ~max_pos cols)

let find t ~grid spec =
  let key = key ~grid spec in
  let e =
    Mutex.protect t.m (fun () ->
        match Lru.find t.lru key with
        | Some e ->
            t.hits <- t.hits + 1;
            observe "histogram.catalog_hits";
            e
        | None ->
            let e =
              { spec; grid; m = Mutex.create (); hist = None; slices = None }
            in
            if Lru.add t.lru key e <> None then begin
              t.evictions <- t.evictions + 1;
              observe "histogram.catalog_evictions"
            end;
            t.builds <- t.builds + 1;
            observe "histogram.catalog_builds";
            e)
  in
  Mutex.protect e.m (fun () ->
      if Option.is_none e.hist then
        e.hist <-
          Some
            (build_traced t e ~part:"histogram" (fun ~grid ~max_pos cols ->
                 Position_histogram.build ~grid ~max_pos cols)));
  e

let histogram (e : entry) = Option.get e.hist
let cardinality e = Position_histogram.cardinality (histogram e)

let slices t (e : entry) =
  Mutex.protect e.m (fun () ->
      match e.slices with
      | Some s -> s
      | None ->
          let s =
            build_traced t e ~part:"levels" (fun ~grid ~max_pos cols ->
                Position_histogram.build_slices ~grid ~max_pos cols)
          in
          e.slices <- Some s;
          Mutex.protect t.m (fun () -> t.slice_builds <- t.slice_builds + 1);
          observe "histogram.catalog_slice_builds";
          s)

let stats t =
  Mutex.protect t.m (fun () ->
      {
        builds = t.builds;
        slice_builds = t.slice_builds;
        hits = t.hits;
        evictions = t.evictions;
        entries = Lru.length t.lru;
        capacity = Lru.capacity t.lru;
      })
