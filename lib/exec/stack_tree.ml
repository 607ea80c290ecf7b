open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_guard
module Ibuf = Batch.Ibuf
module Pool = Sjos_par.Pool
module Shard = Sjos_par.Shard
module Work = Sjos_obs.Work
module Registry = Sjos_obs.Registry

(* Columnar Stack-Tree kernels.  The legacy group-list implementation is
   preserved in {!Stack_tree_legacy}; this module must produce
   bit-identical tuple sequences and counter totals (modulo
   [items_skipped]) while touching only flat int arrays on the hot path.

   With a domain pool, the join is additionally range-partitioned on the
   ancestor group column at forest-closed cut points (no ancestor
   interval straddles a cut — {!Sjos_par.Shard.cut_points}), each shard
   runs the identical serial kernel over its slice, and shard outputs
   are concatenated in shard order.  Sharding is output- and
   counter-preserving by construction, not by sampling: see the
   [~drain] accounting in {!merge_loop}. *)

(* ---------- grouping: batch rows -> flat group columns ---------- *)

(* Consecutive rows with the same node in the join slot form one group;
   [off] has [n + 1] meaningful entries delimiting each group's row
   range.  The arrays are sized for the worst case (one group per row)
   and filled in one pass — growth-free, so grouping costs a handful of
   ns per input row; entries past [n] are unused.

   The [e_*] closures are the page-accounting hook: before the merge
   reads a group's metadata or a row range it calls the matching
   closure, which for a Disk leaf charges the covering pages through the
   buffer pool ({!Column_store.ensure_meta} and friends).  In-memory
   groups carry shared no-op closures, so the resident hot path pays one
   indirect call per ensured access and nothing else.  The values are
   always the resident columns, so stacked ancestor groups ensured at
   push time stay readable for the whole merge even after the pool
   evicts their pages. *)
type groups = {
  n : int;
  off : int array;
  gstart : int array;  (* join-node start positions, strictly increasing *)
  gend : int array;
  glevel : int array;
  e_meta : int -> unit;  (* fault group [g]'s start/end/level *)
  e_probe : int -> unit;  (* fault group [g]'s start only (gallop probe) *)
  e_rows : int -> int -> unit;  (* fault absolute row range [lo, hi) *)
}

let no_ensure (_ : int) = ()
let no_ensure2 (_ : int) (_ : int) = ()

let group ~(cols : Cols.t) (b : Batch.t) slot =
  let width = Batch.width b and data = Batch.data b and len = Batch.length b in
  if len > 0 && (slot < 0 || slot >= width) then
    invalid_arg "Stack_tree: join slot out of range";
  let starts = cols.Cols.starts
  and ends = cols.Cols.ends
  and levels = cols.Cols.levels in
  let size = Array.length starts in
  let off = Array.make (len + 1) 0
  and gstart = Array.make len 0
  and gend = Array.make len 0
  and glevel = Array.make len 0 in
  let n = ref 0 in
  let current = ref min_int and last_start = ref (-1) in
  for r = 0 to len - 1 do
    let id = Array.unsafe_get data ((r * width) + slot) in
    if id <> !current then begin
      if id = Tuple.unbound then
        invalid_arg "Stack_tree: join slot unbound in input tuple";
      if id < 0 || id >= size then
        invalid_arg (Printf.sprintf "Document.node: id %d out of range" id);
      let s = Array.unsafe_get starts id in
      if s < !last_start then
        invalid_arg "Stack_tree: input not sorted by its join slot";
      last_start := s;
      let k = !n in
      Array.unsafe_set off k r;
      Array.unsafe_set gstart k s;
      Array.unsafe_set gend k (Array.unsafe_get ends id);
      Array.unsafe_set glevel k (Array.unsafe_get levels id);
      n := k + 1;
      current := id
    end
  done;
  off.(!n) <- len;
  {
    n = !n;
    off;
    gstart;
    gend;
    glevel;
    e_meta = no_ensure;
    e_probe = no_ensure;
    e_rows = no_ensure2;
  }

(* Groups [lo, hi) as a shard-local view.  Row offsets stay absolute
   (they index the shared batch data), only the group indexing is
   rebased.  Sharded slices always run over fully-forced inputs (see
   {!shard_cuts}), so the views carry no-op ensure closures — per-shard
   lazy faulting would make page accounting depend on domain
   interleaving. *)
let sub_groups (g : groups) lo hi =
  {
    n = hi - lo;
    off = Array.sub g.off lo (hi - lo + 1);
    gstart = Array.sub g.gstart lo (hi - lo);
    gend = Array.sub g.gend lo (hi - lo);
    glevel = Array.sub g.glevel lo (hi - lo);
    e_meta = no_ensure;
    e_probe = no_ensure;
    e_rows = no_ensure2;
  }

(* ---------- inputs: resident batches or disk-backed leaves ---------- *)

(* A leaf input is one tag's candidate columns served lazily by a
   {!Column_store.leaf}: the merge faults in group metadata for groups
   it actually examines, single [starts] probes for gallop skips, and
   [ids] only for rows that reach an emitted pair.  Row data is exposed
   to the shared emit machinery as the same flat [width * n] array a
   materialized scan would produce ([slot] bound, everything else
   [Tuple.unbound]); the [ids] column is copied in chunk-at-a-time as
   emits demand it, tracked by one fill flag per chunk. *)

let leaf_chunk = 256

type leaf_input = {
  lf : Column_store.leaf;
  lwidth : int;
  lslot : int;
  ldata : int array;
  lfill : Bytes.t;  (* per-chunk fill flags over [ldata] rows *)
}

type input = Rows of Batch.t | Leaf of leaf_input

let leaf ~width ~slot lf =
  if slot < 0 || slot >= width then
    invalid_arg "Stack_tree: join slot out of range";
  let n = Column_store.leaf_length lf in
  Leaf
    {
      lf;
      lwidth = width;
      lslot = slot;
      ldata = Array.make (max 1 (n * width)) Tuple.unbound;
      lfill = Bytes.make (max 1 ((n + leaf_chunk - 1) / leaf_chunk)) '\000';
    }

let fill_rows (l : leaf_input) lo hi =
  if hi > lo then begin
    let n = Column_store.leaf_length l.lf in
    let w = l.lwidth and slot = l.lslot in
    let c0 = lo / leaf_chunk and c1 = (hi - 1) / leaf_chunk in
    for c = c0 to c1 do
      if Bytes.unsafe_get l.lfill c = '\000' then begin
        let r0 = c * leaf_chunk in
        let r1 = min n (r0 + leaf_chunk) in
        Column_store.ensure_ids l.lf r0 r1;
        let ids = (Column_store.leaf_cols l.lf).Cols.ids in
        for r = r0 to r1 - 1 do
          Array.unsafe_set l.ldata ((r * w) + slot) (Array.unsafe_get ids r)
        done;
        Bytes.unsafe_set l.lfill c '\001'
      end
    done
  end

let force_leaf (l : leaf_input) =
  Column_store.force l.lf;
  fill_rows l 0 (Column_store.leaf_length l.lf)

(* Candidate ids from the store are strictly increasing (document
   order), so every row is its own group and [off] is the identity —
   the exact grouping {!group} computes for the materialized scan.  The
   metadata columns alias the leaf's resident columns; the merge calls
   the ensure closures before reading a slot, so each read is charged
   to the pool.  [e_meta]/[e_probe] memoize their last index: the merge
   re-ensures the current group on every iteration, and one [ref]
   comparison keeps that re-entry off the pool. *)
let leaf_groups (l : leaf_input) =
  let c = Column_store.leaf_cols l.lf in
  let n = Column_store.leaf_length l.lf in
  let last_meta = ref (-1) and last_probe = ref (-1) in
  {
    n;
    off = Array.init (n + 1) Fun.id;
    gstart = c.Cols.starts;
    gend = c.Cols.ends;
    glevel = c.Cols.levels;
    e_meta =
      (fun g ->
        if g <> !last_meta then begin
          Column_store.ensure_meta l.lf g (g + 1);
          last_meta := g
        end);
    e_probe =
      (fun g ->
        if g <> !last_probe then begin
          Column_store.ensure_probe l.lf g;
          last_probe := g
        end);
    e_rows = (fun lo hi -> fill_rows l lo hi);
  }

let input_width = function Rows b -> Batch.width b | Leaf l -> l.lwidth

let input_rows = function
  | Rows b -> Batch.length b
  | Leaf l -> Column_store.leaf_length l.lf

let input_data = function Rows b -> Batch.data b | Leaf l -> l.ldata

let to_batch = function
  | Rows b -> b
  | Leaf l ->
      force_leaf l;
      Batch.unsafe_of_raw ~width:l.lwidth
        ~len:(Column_store.leaf_length l.lf)
        l.ldata

(* ---------- shared merge machinery ---------- *)

(* Deadline/cancellation polls in the merge loops are amortized: a clock
   read per descendant group would dominate small joins. *)
let poll_mask = 255

let poll_merge ~budget iters =
  incr iters;
  if !iters land poll_mask = 0 then Budget.check budget ~during:"execute"

(* First index in [lo, hi) whose value is >= [target]; [hi] if none.
   Exponential probe followed by binary search, so a jump over [d] items
   costs O(log d) instead of O(d).  [probe] charges each examined index
   before its value is read (a no-op for Mem inputs) — the skip
   over [d] items therefore costs O(log d) page touches too, which is
   exactly the out-of-core saving the IO bench measures. *)
let gallop ~probe (a : int array) lo hi target =
  if
    lo >= hi
    ||
    (probe lo;
     Array.unsafe_get a lo >= target)
  then lo
  else begin
    let prev = ref lo and cur = ref (lo + 1) and step = ref 1 in
    while
      !cur < hi
      &&
      (probe !cur;
       Array.unsafe_get a !cur < target)
    do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    let lo' = ref !prev and hi' = ref (min !cur hi) in
    (* invariant: a.(!lo') < target, and either !hi' = hi or
       a.(!hi') >= target *)
    while !hi' - !lo' > 1 do
      let mid = (!lo' + !hi') / 2 in
      probe mid;
      if Array.unsafe_get a mid < target then lo' := mid else hi' := mid
    done;
    !hi'
  end

(* Merge one ancestor row with one descendant row straight into [out] at
   [obase], mirroring {!Tuple.merge} (including its error message). *)
let merge_rows adata abase ddata dbase out obase width =
  for k = 0 to width - 1 do
    let x = Array.unsafe_get adata (abase + k) in
    let y = Array.unsafe_get ddata (dbase + k) in
    if x = Tuple.unbound then Array.unsafe_set out (obase + k) y
    else if y = Tuple.unbound then Array.unsafe_set out (obase + k) x
    else invalid_arg "Tuple.merge: slot bound on both sides"
  done

(* The Stack-Tree merge over group columns, with an explicit int-indexed
   stack of ancestor group indices.  [emit g d] is called for every
   related (ancestor group, descendant group) pair, bottom-to-top within
   each descendant visit — exactly the legacy emission order.

   Skip-ahead (the batch engine's win over the textbook loop):

   - ancestor side: a group whose interval ends before the current
     descendant group starts can never contain it, nor any later
     descendant (their starts only grow).  The whole dead run is skipped
     in one scan without materializing stack entries; the push+pop
     accounting ([stack_ops]) is still charged so executed counters match
     the legacy kernels bit-for-bit.

   - descendant side: when the stack is empty, nothing can emit until
     the next ancestor group opens at [ag.gstart.(ai)], so every
     descendant group starting before it is galloped over (binary search
     on the sorted start column).

   Both skips are counted in [Work.items_skipped] (diagnostics only,
   never priced by the cost model).

   [drain]: sharded runs set it on every shard that has descendant
   groups after its own slice.  Ancestor groups left over when the
   shard's descendants run out are then charged as a dead run
   ([stack_ops] push+pop and [items_skipped]), because that is exactly
   what the serial merge does to them when the first later descendant
   becomes current — every leftover group's interval ends before the
   next cut, hence before any later descendant's start.  The serial
   (unsharded) call passes [drain:false]: with no later descendants the
   serial loop leaves those groups untouched, and so do we. *)
let merge_loop ~budget ~(work : Work.t) ~axis ~drain (ag : groups)
    (dg : groups) ~emit =
  let iters = ref 0 in
  let stack = ref (Array.make 64 0) in
  let sp = ref 0 in
  let push g =
    if !sp = Array.length !stack then begin
      let bigger = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 bigger 0 !sp;
      stack := bigger
    end;
    Array.unsafe_set !stack !sp g;
    incr sp
  in
  let pop_until start =
    while
      !sp > 0
      && Array.unsafe_get ag.gend (Array.unsafe_get !stack (!sp - 1)) < start
    do
      decr sp
    done
  in
  let is_child = match axis with Axes.Child -> true | Axes.Descendant -> false in
  let na = ag.n and nd = dg.n in
  let ai = ref 0 and di = ref 0 in
  while !di < nd do
    poll_merge ~budget iters;
    dg.e_probe !di;
    let dstart = Array.unsafe_get dg.gstart !di in
    if !ai < na then ag.e_meta !ai;
    if !ai < na && Array.unsafe_get ag.gstart !ai < dstart then begin
      if Array.unsafe_get ag.gend !ai < dstart then begin
        (* ancestor-side skip: dead run (validated documents guarantee
           start < end, so end < dstart implies start < dstart) *)
        let j = ref (!ai + 1) in
        while
          !j < na
          &&
          (ag.e_meta !j;
           Array.unsafe_get ag.gend !j < dstart)
        do
          incr j
        done;
        let items = ag.off.(!j) - ag.off.(!ai) in
        work.Work.stack_ops <- work.Work.stack_ops + (2 * items);
        work.Work.items_skipped <- work.Work.items_skipped + items;
        ai := !j
      end
      else begin
        let astart = Array.unsafe_get ag.gstart !ai in
        pop_until astart;
        work.Work.stack_ops <-
          work.Work.stack_ops + (2 * (ag.off.(!ai + 1) - ag.off.(!ai)));
        push !ai;
        incr ai
      end
    end
    else begin
      pop_until dstart;
      if !sp = 0 then
        (* descendant-side skip *)
        if !ai >= na then begin
          work.Work.items_skipped <-
            work.Work.items_skipped + (dg.off.(nd) - dg.off.(!di));
          di := nd
        end
        else begin
          let j =
            gallop ~probe:dg.e_probe dg.gstart !di nd
              (Array.unsafe_get ag.gstart !ai)
          in
          if j > !di then begin
            work.Work.items_skipped <-
              work.Work.items_skipped + (dg.off.(j) - dg.off.(!di));
            di := j
          end
          else incr di
        end
      else begin
        dg.e_meta !di;
        let dend = Array.unsafe_get dg.gend !di in
        let dlevel = Array.unsafe_get dg.glevel !di in
        (* Deterministic work unit: one comparison per live stack entry
           examined for this descendant group.  The stack holds exactly
           the ancestor groups whose interval contains [dstart], which
           does not depend on shard boundaries (forest-closed cuts) or
           on engine (the legacy join scans the same stack), so totals
           are partition- and engine-invariant. *)
        work.Work.comparisons <- work.Work.comparisons + !sp;
        (* bottom-to-top = ancestor document order within this descendant *)
        for s = 0 to !sp - 1 do
          let g = Array.unsafe_get !stack s in
          if
            dend < Array.unsafe_get ag.gend g
            && Array.unsafe_get ag.gstart g < dstart
            && ((not is_child) || dlevel = Array.unsafe_get ag.glevel g + 1)
          then emit g !di
        done;
        incr di
      end
    end
  done;
  if drain && !ai < na then begin
    let items = ag.off.(na) - ag.off.(!ai) in
    work.Work.stack_ops <- work.Work.stack_ops + (2 * items);
    work.Work.items_skipped <- work.Work.items_skipped + items
  end

(* --- Stack-Tree-Desc: stream output in descendant order --------------- *)

let run_desc ~budget ~axis ~drain ~width ~adata ~ddata (ag : groups)
    (dg : groups) =
  let work = Work.current () in
  let cap = ref (max 16 (width * 64)) in
  let out = ref (Array.make !cap Tuple.unbound) in
  let out_len = ref 0 in
  let limited = not (Budget.is_unlimited budget) in
  (* the join's own output count, checked against the tuple ceiling *)
  let emitted = ref 0 in
  let emit g d =
    let a_lo = ag.off.(g) and a_hi = ag.off.(g + 1) in
    let d_lo = dg.off.(d) and d_hi = dg.off.(d + 1) in
    ag.e_rows a_lo a_hi;
    dg.e_rows d_lo d_hi;
    let npairs = (a_hi - a_lo) * (d_hi - d_lo) in
    let need = npairs * width in
    if !out_len + need > !cap then begin
      while !out_len + need > !cap do
        cap := !cap * 2
      done;
      let bigger = Array.make !cap Tuple.unbound in
      Array.blit !out 0 bigger 0 !out_len;
      out := bigger
    end;
    let buf = !out in
    if limited then
      (* slow path: legacy per-tuple budget-check timing, so a capped run
         stops after exactly the same tuple as the legacy engine *)
      for ar = a_lo to a_hi - 1 do
        let abase = ar * width in
        for dr = d_lo to d_hi - 1 do
          merge_rows adata abase ddata (dr * width) buf !out_len width;
          out_len := !out_len + width;
          work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
          incr emitted;
          Budget.check_tuples budget ~during:"execute" ~count:!emitted
        done
      done
    else begin
      let ol = ref !out_len in
      for ar = a_lo to a_hi - 1 do
        let abase = ar * width in
        for dr = d_lo to d_hi - 1 do
          merge_rows adata abase ddata (dr * width) buf !ol width;
          ol := !ol + width
        done
      done;
      out_len := !ol;
      work.Work.tuples_emitted <- work.Work.tuples_emitted + npairs
    end
  in
  merge_loop ~budget ~work ~axis ~drain ag dg ~emit;
  let len = if width = 0 then 0 else !out_len / width in
  Batch.unsafe_of_raw ~width ~len !out

(* --- Stack-Tree-Anc: buffer pairs until the ancestor pops ------------- *)

let run_anc ~budget ~axis ~drain ~width ~adata ~ddata (ag : groups)
    (dg : groups) =
  let work = Work.current () in
  (* Pairs are buffered as (anc group, anc row, desc row) triples in
     generation order, then laid out by a stable counting sort on the anc
     group index.  The legacy variant's self/inherit chunk chaining emits
     exactly this order: all pairs of group [g] (in generation order)
     before any pair of a later group.  Buffering |AB| pairs is what the
     [2 |AB| f_IO] cost term prices, hence [io_items] at generation. *)
  let pairs = Ibuf.create 256 in
  let counts = Array.make ag.n 0 in
  let limited = not (Budget.is_unlimited budget) in
  let emitted = ref 0 in
  let emit g d =
    let a_lo = ag.off.(g) and a_hi = ag.off.(g + 1) in
    let d_lo = dg.off.(d) and d_hi = dg.off.(d + 1) in
    ag.e_rows a_lo a_hi;
    dg.e_rows d_lo d_hi;
    let npairs = (a_hi - a_lo) * (d_hi - d_lo) in
    Ibuf.reserve pairs (3 * npairs);
    if limited then
      (* slow path: legacy per-tuple budget-check timing *)
      for ar = a_lo to a_hi - 1 do
        for dr = d_lo to d_hi - 1 do
          Ibuf.push pairs g;
          Ibuf.push pairs ar;
          Ibuf.push pairs dr;
          counts.(g) <- counts.(g) + 1;
          work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
          incr emitted;
          Budget.check_tuples budget ~during:"execute" ~count:!emitted;
          work.Work.io_items <- work.Work.io_items + 2
        done
      done
    else begin
      for ar = a_lo to a_hi - 1 do
        for dr = d_lo to d_hi - 1 do
          Ibuf.push pairs g;
          Ibuf.push pairs ar;
          Ibuf.push pairs dr
        done
      done;
      counts.(g) <- counts.(g) + npairs;
      work.Work.tuples_emitted <- work.Work.tuples_emitted + npairs;
      work.Work.io_items <- work.Work.io_items + (2 * npairs)
    end
  in
  merge_loop ~budget ~work ~axis ~drain ag dg ~emit;
  let npairs = Ibuf.length pairs / 3 in
  let pos = Array.make ag.n 0 in
  let acc = ref 0 in
  for g = 0 to ag.n - 1 do
    pos.(g) <- !acc;
    acc := !acc + counts.(g)
  done;
  let out = Array.make (npairs * width) Tuple.unbound in
  let pdata = Ibuf.data pairs in
  for p = 0 to npairs - 1 do
    let g = Array.unsafe_get pdata (3 * p) in
    let ar = Array.unsafe_get pdata ((3 * p) + 1) in
    let dr = Array.unsafe_get pdata ((3 * p) + 2) in
    let row = pos.(g) in
    pos.(g) <- row + 1;
    merge_rows adata (ar * width) ddata (dr * width) out (row * width) width
  done;
  Batch.unsafe_of_raw ~width ~len:npairs out

(* --- root variants: emit boxed tuples directly ----------------------- *)

(* The last join of a plan is immediately converted to [Tuple.t array]
   for the caller; materializing a flat batch first would pay for the
   output twice (flat buffer with growth copies, then one boxed tuple
   per row).  The root variants run the same grouping and skip-ahead
   merge but build each output tuple in boxed form exactly once, like
   the legacy kernels do — so the root join is never slower than legacy
   and every interior operator keeps the columnar win. *)

let merge_rows_boxed adata abase ddata dbase width =
  let t = Array.make width Tuple.unbound in
  for k = 0 to width - 1 do
    let x = Array.unsafe_get adata (abase + k) in
    let y = Array.unsafe_get ddata (dbase + k) in
    if x = Tuple.unbound then Array.unsafe_set t k y
    else if y = Tuple.unbound then Array.unsafe_set t k x
    else invalid_arg "Tuple.merge: slot bound on both sides"
  done;
  t

let run_desc_root ~budget ~axis ~drain ~width ~adata ~ddata
    (ag : groups) (dg : groups) =
  let work = Work.current () in
  let cap = ref 64 in
  let out = ref (Array.make !cap ([||] : Tuple.t)) in
  let out_len = ref 0 in
  let limited = not (Budget.is_unlimited budget) in
  let emit g d =
    let a_lo = ag.off.(g) and a_hi = ag.off.(g + 1) in
    let d_lo = dg.off.(d) and d_hi = dg.off.(d + 1) in
    ag.e_rows a_lo a_hi;
    dg.e_rows d_lo d_hi;
    let npairs = (a_hi - a_lo) * (d_hi - d_lo) in
    if !out_len + npairs > !cap then begin
      while !out_len + npairs > !cap do
        cap := !cap * 2
      done;
      let bigger = Array.make !cap ([||] : Tuple.t) in
      Array.blit !out 0 bigger 0 !out_len;
      out := bigger
    end;
    let buf = !out in
    for ar = a_lo to a_hi - 1 do
      let abase = ar * width in
      for dr = d_lo to d_hi - 1 do
        Array.unsafe_set buf !out_len
          (merge_rows_boxed adata abase ddata (dr * width) width);
        incr out_len;
        work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
        if limited then
          Budget.check_tuples budget ~during:"execute" ~count:!out_len
      done
    done
  in
  merge_loop ~budget ~work ~axis ~drain ag dg ~emit;
  Array.sub !out 0 !out_len

let run_anc_root ~budget ~axis ~drain ~width ~adata ~ddata
    (ag : groups) (dg : groups) =
  let work = Work.current () in
  let pairs = Ibuf.create 256 in
  let counts = Array.make ag.n 0 in
  let limited = not (Budget.is_unlimited budget) in
  let emitted = ref 0 in
  let emit g d =
    let a_lo = ag.off.(g) and a_hi = ag.off.(g + 1) in
    let d_lo = dg.off.(d) and d_hi = dg.off.(d + 1) in
    ag.e_rows a_lo a_hi;
    dg.e_rows d_lo d_hi;
    let npairs = (a_hi - a_lo) * (d_hi - d_lo) in
    Ibuf.reserve pairs (3 * npairs);
    if limited then
      (* slow path: legacy per-tuple budget-check timing *)
      for ar = a_lo to a_hi - 1 do
        for dr = d_lo to d_hi - 1 do
          Ibuf.push pairs g;
          Ibuf.push pairs ar;
          Ibuf.push pairs dr;
          counts.(g) <- counts.(g) + 1;
          work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
          incr emitted;
          Budget.check_tuples budget ~during:"execute" ~count:!emitted;
          work.Work.io_items <- work.Work.io_items + 2
        done
      done
    else begin
      for ar = a_lo to a_hi - 1 do
        for dr = d_lo to d_hi - 1 do
          Ibuf.push pairs g;
          Ibuf.push pairs ar;
          Ibuf.push pairs dr
        done
      done;
      counts.(g) <- counts.(g) + npairs;
      work.Work.tuples_emitted <- work.Work.tuples_emitted + npairs;
      work.Work.io_items <- work.Work.io_items + (2 * npairs)
    end
  in
  merge_loop ~budget ~work ~axis ~drain ag dg ~emit;
  let npairs = Ibuf.length pairs / 3 in
  let pos = Array.make ag.n 0 in
  let acc = ref 0 in
  for g = 0 to ag.n - 1 do
    pos.(g) <- !acc;
    acc := !acc + counts.(g)
  done;
  let out = Array.make npairs ([||] : Tuple.t) in
  let pdata = Ibuf.data pairs in
  for p = 0 to npairs - 1 do
    let g = Array.unsafe_get pdata (3 * p) in
    let ar = Array.unsafe_get pdata ((3 * p) + 1) in
    let dr = Array.unsafe_get pdata ((3 * p) + 2) in
    let row = pos.(g) in
    pos.(g) <- row + 1;
    Array.unsafe_set out row
      (merge_rows_boxed adata (ar * width) ddata (dr * width) width)
  done;
  out

(* ---------- sharded dispatch ---------- *)

(* Below this many total input rows the pool hand-off costs more than
   the merge; tests lower it to force sharding on tiny documents. *)
let default_par_min_rows = 4096

(* Decide whether (and where) to shard.  Parallelism is declined when
   the budget carries a tuple ceiling: the serial kernels stop after
   exactly the budgeted tuple, and per-shard counters cannot reproduce
   that global ordering.  Deadline/cancellation budgets poll per shard
   and stay on.  Returns the cut array only when it yields >= 2 shards.

   [force] materializes any disk-backed leaf inputs; it runs after the
   cheap size checks but before cut-point selection, which scans the
   full ancestor metadata columns.  Sharded merges therefore never
   fault lazily (see {!sub_groups}): page accounting stays a
   deterministic full scan regardless of domain count, at the price of
   giving up skip-ahead IO savings on joins big enough to shard. *)
let shard_cuts ~pool ~par_min_rows ~budget ~force (ag : groups) (dg : groups) =
  match pool with
  | None -> None
  | Some p ->
      if
        Pool.size p <= 1 || ag.n < 2 || dg.n = 0
        || budget.Budget.max_tuples <> None
        || ag.off.(ag.n) + dg.off.(dg.n) < par_min_rows
      then None
      else begin
        force ();
        (* modest oversubscription so row-balanced cuts of skewed inputs
           still fill every domain *)
        let shards = min (2 * Pool.size p) ag.n in
        let cuts =
          Shard.cut_points ~shards ~off:ag.off ~gstart:ag.gstart ~gend:ag.gend
            ~n:ag.n
        in
        if Array.length cuts <= 2 then None else Some cuts
      end

(* Run [runner] once per shard and hand the per-shard outputs back in
   shard order.  Each runner charges the {!Work} accumulator of the
   domain it runs on; {!Pool.run} absorbs every task's delta into the
   caller at the barrier (integer counters are order-independent sums).
   Each shard gets the ancestor slice [cuts.(k), cuts.(k+1)) and exactly
   the descendant groups whose start falls at-or-after its first
   ancestor's start and before the next shard's — containment pairs
   never cross a valid cut, so every pair is produced by exactly one
   shard. *)
let run_sharded ~pool ~cuts (ag : groups) (dg : groups) runner =
  let m = Array.length cuts - 1 in
  (if Registry.enabled () then begin
     (* Shard-balance accounting, computed from the cuts alone — fully
        deterministic for a given pool size and input, independent of
        scheduling.  balance = max_weighted / total >= 1.0, with 1.0 a
        perfectly even split; the parallel bench gates on this ratio. *)
     let total = ref 0 and max_rows = ref 0 in
     for k = 0 to m - 1 do
       let alo = cuts.(k) and ahi = cuts.(k + 1) in
       let dlo =
         if k = 0 then 0
         else Shard.lower_bound dg.gstart ~lo:0 ~hi:dg.n ag.gstart.(alo)
       in
       let dhi =
         if k = m - 1 then dg.n
         else Shard.lower_bound dg.gstart ~lo:0 ~hi:dg.n ag.gstart.(ahi)
       in
       let rows = ag.off.(ahi) - ag.off.(alo) + (dg.off.(dhi) - dg.off.(dlo)) in
       total := !total + rows;
       if rows > !max_rows then max_rows := rows
     done;
     Registry.incr (Registry.counter "par.sharded_joins");
     Registry.add (Registry.counter "par.shard_rows_total") !total;
     Registry.add (Registry.counter "par.shard_rows_max_weighted")
       (!max_rows * m)
   end);
  Pool.run pool m (fun k ->
      let alo = cuts.(k) and ahi = cuts.(k + 1) in
      let dlo =
        if k = 0 then 0
        else Shard.lower_bound dg.gstart ~lo:0 ~hi:dg.n ag.gstart.(alo)
      in
      let dhi =
        if k = m - 1 then dg.n
        else Shard.lower_bound dg.gstart ~lo:0 ~hi:dg.n ag.gstart.(ahi)
      in
      runner ~drain:(dhi < dg.n) (sub_groups ag alo ahi)
        (sub_groups dg dlo dhi))

let concat_batches ~width (parts : Batch.t array) =
  let total = Array.fold_left (fun acc b -> acc + Batch.length b) 0 parts in
  let data = Array.make (max 1 (total * width)) Tuple.unbound in
  let pos = ref 0 in
  Array.iter
    (fun b ->
      let n = Batch.length b * width in
      Array.blit (Batch.data b) 0 data !pos n;
      pos := !pos + n)
    parts;
  Batch.unsafe_of_raw ~width ~len:total data

(* ---------- entry points ---------- *)

(* Group an input for a join on [slot].  A leaf joined on its own bound
   slot is served lazily; any other slot is unbound in a leaf's rows, so
   {!group} would reject it anyway — materialize and let it raise the
   same diagnostics a batch input gets.  Document position columns are
   only built when a batch input actually needs them. *)
let group_input ~cols (i : input) slot =
  match i with
  | Rows b -> group ~cols:(Lazy.force cols) b slot
  | Leaf l ->
      if slot = l.lslot then leaf_groups l
      else group ~cols:(Lazy.force cols) (to_batch i) slot

let prepare ~doc ~anc:(anc_i, anc_slot) ~desc:(desc_i, desc_slot) =
  let width = input_width anc_i in
  if input_width desc_i <> width then
    invalid_arg "Stack_tree: input batch widths differ";
  let cols = lazy (Document.positions doc) in
  let ag = group_input ~cols anc_i anc_slot in
  let dg = group_input ~cols desc_i desc_slot in
  (width, input_data anc_i, input_data desc_i, ag, dg)

let force_input = function Rows _ -> () | Leaf l -> force_leaf l

let join_batch_in ?(budget = Budget.unlimited) ?pool
    ?(par_min_rows = default_par_min_rows) ~doc ~axis ~algo ~anc ~desc () =
  let width, adata, ddata, ag, dg = prepare ~doc ~anc ~desc in
  let runner =
    match algo with
    | Plan.Stack_tree_desc -> run_desc
    | Plan.Stack_tree_anc -> run_anc
  in
  let force () =
    force_input (fst anc);
    force_input (fst desc)
  in
  match shard_cuts ~pool ~par_min_rows ~budget ~force ag dg with
  | Some cuts ->
      let pool = Option.get pool in
      let parts =
        run_sharded ~pool ~cuts ag dg (fun ~drain sag sdg ->
            runner ~budget ~axis ~drain ~width ~adata ~ddata sag sdg)
      in
      concat_batches ~width parts
  | None -> runner ~budget ~axis ~drain:false ~width ~adata ~ddata ag dg

let join_root_in ?(budget = Budget.unlimited) ?pool
    ?(par_min_rows = default_par_min_rows) ~doc ~axis ~algo ~anc ~desc () =
  let width, adata, ddata, ag, dg = prepare ~doc ~anc ~desc in
  let runner =
    match algo with
    | Plan.Stack_tree_desc -> run_desc_root
    | Plan.Stack_tree_anc -> run_anc_root
  in
  let force () =
    force_input (fst anc);
    force_input (fst desc)
  in
  match shard_cuts ~pool ~par_min_rows ~budget ~force ag dg with
  | Some cuts ->
      let pool = Option.get pool in
      let parts =
        run_sharded ~pool ~cuts ag dg (fun ~drain sag sdg ->
            runner ~budget ~axis ~drain ~width ~adata ~ddata sag sdg)
      in
      Array.concat (Array.to_list parts)
  | None -> runner ~budget ~axis ~drain:false ~width ~adata ~ddata ag dg

let join_batch ?budget ?pool ?par_min_rows ~doc ~axis ~algo
    ~anc:(anc_b, anc_slot) ~desc:(desc_b, desc_slot) () =
  join_batch_in ?budget ?pool ?par_min_rows ~doc ~axis ~algo
    ~anc:(Rows anc_b, anc_slot) ~desc:(Rows desc_b, desc_slot) ()

let join_root ?budget ?pool ?par_min_rows ~doc ~axis ~algo
    ~anc:(anc_b, anc_slot) ~desc:(desc_b, desc_slot) () =
  join_root_in ?budget ?pool ?par_min_rows ~doc ~axis ~algo
    ~anc:(Rows anc_b, anc_slot) ~desc:(Rows desc_b, desc_slot) ()

let join ?budget ?pool ?par_min_rows ~doc ~axis ~algo
    ~anc:(anc_tuples, anc_slot) ~desc:(desc_tuples, desc_slot) () =
  let width =
    if Array.length anc_tuples > 0 then Array.length anc_tuples.(0)
    else if Array.length desc_tuples > 0 then Array.length desc_tuples.(0)
    else 0
  in
  let anc_b = Batch.of_tuples ~width anc_tuples in
  let desc_b = Batch.of_tuples ~width desc_tuples in
  Batch.to_tuples
    (join_batch ?budget ?pool ?par_min_rows ~doc ~axis ~algo
       ~anc:(anc_b, anc_slot) ~desc:(desc_b, desc_slot) ())
