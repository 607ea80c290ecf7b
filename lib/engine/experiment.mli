(** Harnesses that regenerate every table and figure of the paper's
    evaluation (§4).  Each function returns structured rows; printing
    helpers render them in the paper's layout.

    Times are reported in two currencies: wall-clock seconds on the host,
    and machine-independent {e cost units} (the executor's operation counts
    weighted by the cost-model factors).  The paper's absolute seconds are
    not reproducible — its substrate was Timber on a Pentium III — but the
    relative shapes are; EXPERIMENTS.md records both. *)

open Sjos_pattern
open Sjos_core

type cell = {
  opt_seconds : float;  (** time spent choosing the plan *)
  plans_considered : int;
  eval_units : float;  (** execution cost units of the chosen plan *)
  eval_seconds : float;
  matches : int;
  est_cost : float;  (** the optimizer's estimate for the chosen plan *)
}

val run_cell : ?opts:Query_opts.t -> Database.t -> Pattern.t -> cell
(** Optimize (per [opts], default {!Query_opts.default}) and execute the
    chosen plan.  If execution would exceed [opts.max_tuples],
    [eval_units] falls back to the cost-model estimate, [eval_seconds] is
    [nan] and [matches] is [-1]. *)

val cold_opts : ?max_tuples:int -> Optimizer.algorithm -> Query_opts.t
(** Options for a cold measurement cell: the given algorithm with plan
    caching off, so [plans_considered]/[opt_seconds] always reflect a real
    search.  All table/figure harnesses below use this. *)

val bad_plan_cell :
  ?seed:int -> ?samples:int -> ?max_tuples:int -> Database.t -> Pattern.t -> cell
(** The paper's "bad plan": the worst of [samples] (default 20) random
    plans.  If execution exceeds [max_tuples], [eval_units] is the
    cost-model estimate instead and [matches] is [-1]. *)

val run_workload :
  ?sizes:(Workload.dataset -> int) ->
  ?opts:Query_opts.t ->
  ?pool:Sjos_par.Pool.t ->
  unit ->
  (Workload.query * Database.query_run) array
(** All eight workload queries through {!Workload.run_all}: databases
    are resolved (and cached) serially on the calling domain, then the
    queries fan out across the pool.  Results are in workload order and
    bit-identical to a serial run for every pool size. *)

(** {1 Table 1} — plan quality and optimization time, 8 queries × 5
    algorithms + bad plan *)

type table1_row = {
  query : Workload.query;
  cells : (Optimizer.algorithm * cell) list;
  bad : cell;
}

val table1 :
  ?sizes:(Workload.dataset -> int) -> ?max_tuples:int -> unit -> table1_row list

val print_table1 : table1_row list -> unit

val cell_to_json : cell -> Sjos_obs.Json.t

val table1_to_json : table1_row list -> Sjos_obs.Json.t
(** One object per query: the per-algorithm cells keyed by algorithm name
    (est/actual cost units, plans considered, opt seconds, …) plus the bad
    plan — the payload the bench harness writes to [BENCH_1.json]. *)

(** {1 Table 2} — optimization time and number of plans considered *)

type table2_row = { algo_name : string; opt_seconds : float; considered : int }

val table2 : ?size:int -> ?query:Workload.query -> unit -> table2_row list

val table2_pinned : (string * int) list
(** Plans considered per algorithm for {!table2} at its defaults
    (Q.Pers.3.d on Pers 5,000): 520/226/163/69/42/18.  The counts are
    deterministic; the benches gate on an exact match. *)

val print_table2 : table2_row list -> unit

(** {1 Table 3} — effect of data size (folding factors) *)

type table3_row = {
  label : string;
  per_fold : (int * float * float) list;
      (** folding factor, eval cost units, eval seconds *)
}

val table3 :
  ?base_size:int ->
  ?folds:int list ->
  ?query:Workload.query ->
  ?max_tuples:int ->
  unit ->
  table3_row list

val print_table3 : table3_row list -> unit

(** {1 Figures 7 and 8} — the Te sweep for DPAP-EB *)

type te_point = { setting : string; opt_units_s : float; eval_units_s : float }
(** One bar of the figure: optimization and execution components of total
    query evaluation time (seconds). *)

val figure_te :
  ?base_size:int -> ?fold:int -> ?query:Workload.query -> unit -> te_point list
(** Runs DPAP-EB for [Te = 1 .. node count], plus DP, DPP, DPAP-LD and FP
    for comparison, on the query's data set replicated [fold] times. *)

val print_figure : title:string -> te_point list -> unit
