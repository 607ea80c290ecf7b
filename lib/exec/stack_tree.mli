(** The Stack-Tree family of structural join algorithms
    (Al-Khalifa et al., ICDE 2002), generalized to tuple inputs and
    implemented as columnar batch kernels.

    Both variants merge two inputs sorted by the document order of their
    join nodes, maintaining an in-memory stack of nested ancestor-side
    groups:

    - {b Stack-Tree-Desc} streams its output ordered by the descendant
      join node — no buffering at all;
    - {b Stack-Tree-Anc} produces output ordered by the ancestor join
      node, which requires buffering result pairs until the ancestor is
      popped — the source of the [2 |AB| f_IO] term in the cost model.

    The kernels operate over flat int columns ({!Batch.t} rows plus the
    document's position columns): grouping, the merge stack and the
    output are all reusable int arrays — no list conses on the hot path —
    and the merge skips ahead over provably unproductive input runs
    (galloping the descendant start column, batch-dropping dead ancestor
    groups), counting what it skipped in {!Sjos_obs.Work.t.items_skipped}.
    Every counter is charged to the calling domain's {!Sjos_obs.Work}
    accumulator.  Outputs, orderings and all other counters are
    bit-identical to the reference implementation kept in
    {!Stack_tree_legacy}.

    Inputs sorted by their join node keep equal nodes adjacent;
    consecutive rows sharing the join node are processed as one group, so
    duplicate join-node values (the normal case for intermediate results)
    are handled exactly.

    {b Parallelism.}  Given a [pool] of size > 1, a large enough join is
    range-partitioned on the ancestor group column at forest-closed cut
    points (no ancestor interval straddles a cut), each shard runs the
    unchanged serial kernel over its slice on a pool domain, per-shard
    work is absorbed at the pool barrier, and shard outputs are
    concatenated in shard order.  The result — tuples, ordering, and
    every counter including [items_skipped] — is bit-identical to the
    serial run by construction, for any shard count.  Sharding is
    declined (falling back to serial) when the budget carries a
    [max_tuples] ceiling, since stopping after exactly the n-th global
    tuple is inherently sequential; deadline/cancellation budgets are
    polled per shard and abort cooperatively.  [par_min_rows] (default
    4096 total input rows) keeps small joins serial. *)

open Sjos_xml
open Sjos_plan

(** {1 Join inputs}

    The kernels accept either a resident columnar batch or a lazy
    Disk leaf — one tag's resident candidate columns whose reads are
    charged page-at-a-time by a {!Sjos_storage.Column_store.leaf}.  A
    leaf input charges only what the merge examines: group metadata for
    groups actually compared, single [starts] probes for gallop
    skip-ahead (an O(log d) page cost for a skip over [d] items), and
    the [ids] column only for rows that reach an emitted pair.  Outputs
    and all counters except page/IO accounting are bit-identical to
    running the same join over the materialized batch.

    Sharded (multi-domain) runs force leaf inputs resident before
    cutting, so their page accounting is a deterministic full scan
    independent of domain count. *)

type leaf_input

type input = Rows of Batch.t | Leaf of leaf_input

val leaf : width:int -> slot:int -> Sjos_storage.Column_store.leaf -> input
(** A lazy scan of the leaf's tag bound in [slot] of a width-[width]
    row.  Raises [Invalid_argument] if [slot] is out of range. *)

val input_rows : input -> int
(** Row count — answered without IO for a leaf. *)

val to_batch : input -> Batch.t
(** The input as a resident batch; forces a leaf fully (charging its
    full-scan page touches). *)

(** {1 Kernel internals shared with the holistic twig kernel}

    {!Twig_stack} drives the same input machinery — grouped candidate
    streams with lazy page accounting, and galloping skip-ahead —
    so leaves, probes and skip accounting behave identically whether a
    stream feeds a binary Stack-Tree merge or the holistic pass. *)

type groups = {
  n : int;  (** number of groups *)
  off : int array;  (** [n + 1] row offsets delimiting each group *)
  gstart : int array;  (** join-node start positions, strictly increasing *)
  gend : int array;
  glevel : int array;
  e_meta : int -> unit;  (** fault group [g]'s start/end/level *)
  e_probe : int -> unit;  (** fault group [g]'s start only (gallop probe) *)
  e_rows : int -> int -> unit;  (** fault absolute row range [lo, hi) *)
}
(** One input grouped by its join slot: consecutive rows sharing the
    join node form a group; the [e_*] closures charge a Disk leaf's
    pages to the buffer pool before the corresponding array slots are
    read (no-ops for Mem inputs). *)

val group_input : cols:Cols.t Lazy.t -> input -> int -> groups
(** Group an input by slot.  Raises [Invalid_argument] when the input is
    not sorted by the slot, the slot is unbound, or an id is out of the
    document's range. *)

val input_width : input -> int

val input_data : input -> int array
(** The input's flat row-major data.  For a leaf, slots are readable
    only after the covering {!groups.e_rows} call. *)

val gallop : probe:(int -> unit) -> int array -> int -> int -> int -> int
(** [gallop ~probe a lo hi target] — first index in [[lo, hi)] whose
    value is [>= target] ([hi] if none), by exponential probe plus
    binary search; [probe i] is called before [a.(i)] is read. *)

val join_batch_in :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:input * int ->
  desc:input * int ->
  unit ->
  Batch.t
(** {!join_batch} generalized to lazy inputs.  A leaf joined on a slot
    other than its own bound slot is materialized first (its other
    slots are unbound, so such a join is degenerate anyway). *)

val join_root_in :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:input * int ->
  desc:input * int ->
  unit ->
  Tuple.t array
(** {!join_root} generalized to lazy inputs. *)

val join_batch :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:Batch.t * int ->
  desc:Batch.t * int ->
  unit ->
  Batch.t
(** [join_batch ~doc ~axis ~algo ~anc:(ba, sa) ~desc:(bd, sd) ()]
    joins the rows of [ba] (whose slot [sa] holds the ancestor-side node,
    sorted by it) with [bd] (slot [sd], sorted by it), returning merged
    rows ordered by the ancestor (STJ-Anc) or descendant (STJ-Desc) node.
    Raises [Invalid_argument] if an input is not sorted by its join slot,
    a join slot is unbound, or the batch widths differ.

    [budget] (default unlimited, zero-cost) is polled from the merge
    loops: every produced tuple is checked against the materialization
    ceiling, and the deadline/cancellation flag every 256 merge steps —
    raising {!Sjos_guard.Budget.Exhausted} with the partial output count. *)

val join_root :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:Batch.t * int ->
  desc:Batch.t * int ->
  unit ->
  Tuple.t array
(** Same join as {!join_batch} — same inputs, same order, same counters —
    but each output tuple is built in boxed form exactly once instead of
    being written to a flat batch and converted afterwards.  Use for the
    last join of a plan, whose result is handed to the caller as
    [Tuple.t array] anyway: materializing the root output twice is pure
    overhead, and for join-heavy patterns the root output dominates the
    run. *)

val join :
  ?budget:Sjos_guard.Budget.t ->
  ?pool:Sjos_par.Pool.t ->
  ?par_min_rows:int ->
  doc:Document.t ->
  axis:Axes.axis ->
  algo:Plan.algo ->
  anc:Tuple.t array * int ->
  desc:Tuple.t array * int ->
  unit ->
  Tuple.t array
(** {!join_batch} behind the classic tuple-array surface: inputs are
    packed with {!Batch.of_tuples} and the result unpacked with
    {!Batch.to_tuples}.  Same contract and same counters. *)
