(* LRU as an intrusive doubly-linked list over dense page ids: page ids
   are allocated as [0 .. next_page - 1], so the links live in two int
   arrays indexed by page id, grown in [allocate].  A touch is a few
   array reads and writes, with no lookup and no allocation. *)

type stats = { accesses : int; hits : int; misses : int; evictions : int }

(* link value of a page that is not resident; [nil] ends the list *)
let absent = -2
let nil = -1

type t = {
  page_size : int;
  pool_pages : int;
  mutable prev : int array;  (* toward the head; [absent] when not resident *)
  mutable next : int array;  (* toward the tail *)
  mutable head : int;  (* most recently used, or [nil] *)
  mutable tail : int;  (* least recently used, or [nil] *)
  mutable resident : int;
  mutable next_page : int;  (* page-id allocator *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type segment = { first_page : int; items : int }

let create ?(page_size = 256) ~pool_pages () =
  if page_size < 1 || pool_pages < 1 then
    invalid_arg "Pager.create: sizes must be positive";
  {
    page_size;
    pool_pages;
    prev = [||];
    next = [||];
    head = nil;
    tail = nil;
    resident = 0;
    next_page = 0;
    accesses = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let page_size t = t.page_size

let unlink t p =
  let pp = t.prev.(p) and np = t.next.(p) in
  if pp = nil then t.head <- np else t.next.(pp) <- np;
  if np = nil then t.tail <- pp else t.prev.(np) <- pp

let push_front t p =
  t.prev.(p) <- nil;
  t.next.(p) <- t.head;
  if t.head = nil then t.tail <- p else t.prev.(t.head) <- p;
  t.head <- p

let evict_lru t =
  let lru = t.tail in
  if lru <> nil then begin
    unlink t lru;
    t.prev.(lru) <- absent;
    t.resident <- t.resident - 1;
    t.evictions <- t.evictions + 1
  end

(* LRU bookkeeping only — no work accounting.  Callers charge
   [Work.page_touches] themselves, which lets the batch entry points
   below fetch the calling domain's accumulator once per call instead of
   once per page. *)
let touch_cell t page =
  t.accesses <- t.accesses + 1;
  if t.prev.(page) <> absent then begin
    t.hits <- t.hits + 1;
    if t.head <> page then begin
      unlink t page;
      push_front t page
    end
  end
  else begin
    t.misses <- t.misses + 1;
    if t.resident >= t.pool_pages then evict_lru t;
    push_front t page;
    t.resident <- t.resident + 1
  end

let charge_touches n =
  let w = Sjos_obs.Work.current () in
  w.Sjos_obs.Work.page_touches <- w.Sjos_obs.Work.page_touches + n

let pages_for t items = max 1 ((items + t.page_size - 1) / t.page_size)

let allocate t ~items =
  if items < 0 then invalid_arg "Pager.allocate: negative size";
  let seg = { first_page = t.next_page; items } in
  t.next_page <- t.next_page + pages_for t items;
  let cap = Array.length t.prev in
  if t.next_page > cap then begin
    let grow a = Array.append a (Array.make (max t.next_page (2 * cap) - cap) absent) in
    t.prev <- grow t.prev;
    t.next <- grow t.next
  end;
  seg

let segment_pages t seg = pages_for t seg.items

let scan t seg =
  let p0 = seg.first_page and p1 = seg.first_page + pages_for t seg.items - 1 in
  charge_touches (p1 - p0 + 1);
  for p = p0 to p1 do
    touch_cell t p
  done

let page_span t seg ~first_item ~n_items =
  if first_item < 0 || n_items < 0 || first_item + n_items > seg.items then
    invalid_arg "Pager.scan_range: range outside segment";
  let p0 = seg.first_page + (first_item / t.page_size) in
  let p1 = seg.first_page + ((first_item + n_items - 1) / t.page_size) in
  (p0, p1)

let scan_range t seg ~first_item ~n_items =
  if n_items > 0 then begin
    let p0, p1 = page_span t seg ~first_item ~n_items in
    charge_touches (p1 - p0 + 1);
    for p = p0 to p1 do
      touch_cell t p
    done
  end

let stats t : stats =
  { accesses = t.accesses; hits = t.hits; misses = t.misses; evictions = t.evictions }

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

(* Drop every resident page and zero the counters: the next access to
   any page is a cold miss, as if the pool had just been created — but
   without forgetting segment allocations, so benches can re-measure
   the same segments against a cold pool. *)
let reset t =
  Array.fill t.prev 0 (Array.length t.prev) absent;
  t.head <- nil;
  t.tail <- nil;
  t.resident <- 0;
  reset_stats t

let hit_ratio t =
  if t.accesses = 0 then 0.0 else float_of_int t.hits /. float_of_int t.accesses

let resident_pages t = t.resident
