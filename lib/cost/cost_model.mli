(** The paper's cost model (§2.2.2).

    Four machine-dependent factors normalize the cost of the physical
    operations so they can be compared and added:

    - index access of [n] items costs [f_index * n];
    - sorting [n] items costs [n * log2 n * f_sort];
    - Stack-Tree-Anc joining ancestor input [A] with output [AB] costs
      [2 * |AB| * f_io + 2 * |A| * f_stack] (the output must be buffered in
      the ancestor's inherit-lists, hence the IO term);
    - Stack-Tree-Desc costs [2 * |A| * f_stack] (fully streaming).

    Cardinalities are floats because they usually come from the
    estimator. *)

type factors = {
  f_index : float;  (** per item retrieved through an index *)
  f_sort : float;  (** per item·log2(item) sorted *)
  f_io : float;  (** per item of buffered intermediate result *)
  f_stack : float;  (** per in-memory stack operation *)
}

val default : factors
(** Factors calibrated so that cost units roughly track the executor's
    operation counts: [f_index = 1], [f_sort = 2], [f_io = 10],
    [f_stack = 1].  Disk IO dominates, as on the paper's hardware. *)

val make :
  ?f_index:float -> ?f_sort:float -> ?f_io:float -> ?f_stack:float -> unit ->
  factors
(** Build factors, defaulting each field to {!default}'s value.  Raises
    [Invalid_argument] on negative factors. *)

val index_access : factors -> float -> float
(** [index_access f n] — cost of retrieving [n] items. *)

val sort : factors -> float -> float
(** [sort f n] — cost of sorting [n] items ([0] for [n <= 1]). *)

val stack_tree_anc : factors -> anc:float -> output:float -> float
(** [stack_tree_anc f ~anc ~output] — Stack-Tree-Anc join cost. *)

val stack_tree_desc : factors -> anc:float -> float
(** [stack_tree_desc f ~anc] — Stack-Tree-Desc join cost. *)

val twig : factors -> candidates:float -> path_solutions:float -> float
(** [twig f ~candidates ~path_solutions] — cost of one holistic
    TwigStack pass over the whole pattern: retrieving every candidate
    stream once ([f_index * candidates]), pushing/popping each streamed
    element through the linked stacks ([2 * candidates * f_stack]), and
    buffering every root-to-leaf path solution for the final prefix
    merge ([2 * path_solutions * f_io] — the same per-buffered-item IO
    weight as Stack-Tree-Anc, so {!ground_io} recalibrates both
    formulas from the same measured run). *)

val ground_io :
  ?per_miss:float -> factors -> page_misses:int -> io_items:int -> factors
(** [ground_io f ~page_misses ~io_items] recalibrates the abstract
    [f_io] factor from a measured run on the Disk column store: if
    buffering [io_items] intermediate items caused [page_misses]
    buffer-pool misses (see {!Sjos_storage.Column_store.io_stats}),
    one buffered item costs [per_miss * page_misses / io_items]
    (default [per_miss] = {!default}'s [f_io], i.e. one miss keeps the
    default per-page weight).  Returns [f] unchanged when either
    counter is zero — no measurement, no recalibration.  Raises
    [Invalid_argument] on negative inputs. *)

val pp_factors : factors Fmt.t
