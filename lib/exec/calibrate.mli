(** Cost-model calibration: fit the four factors (f_I, f_s, f_IO, f_st)
    from measured executions.

    The paper notes that "each implementation of an XML database would have
    different constants associated with the cost of each physical
    operation" — this module recovers them for {e this} implementation on
    {e this} machine by ordinary least squares over (operation counters,
    wall-seconds) observations, with factors clamped to be non-negative.

    A calibrated model makes estimated cost units proportional to the wall
    clock of the host, tightening the optimizer's opt-vs-exec trade-off
    reasoning (Figures 7-8). *)

open Sjos_cost

val fit : (Sjos_obs.Work.t * float) list -> Cost_model.factors
(** [fit observations] — least-squares factors from
    [(counters, measured seconds)] pairs.  Needs at least 4 observations
    with linearly independent counter vectors; degenerate systems fall back
    to {!Cost_model.default} proportions scaled to match total time.
    Raises [Invalid_argument] on an empty observation list. *)

val predict : Cost_model.factors -> Sjos_obs.Work.t -> float
(** The model's prediction for an execution with the given counters
    (equal to {!Executor.cost_units}). *)

val mean_relative_error :
  Cost_model.factors -> (Sjos_obs.Work.t * float) list -> float
(** Average of [|predicted - actual| / actual] over observations with
    [actual > 0]. *)
