(** Parameter sweeps over the SLRH-1 knobs: the delta-T sweep behind
    paper Figure 2 and the horizon-H ablation (paper: negligible impact). *)

open Agrid_core

type point = {
  value : int;  (** the swept parameter's value *)
  t100 : int;
  feasible : bool;
  completed : bool;
  wall_seconds : float;
}

val delta_t :
  ?horizon:int ->
  weights:Objective.weights ->
  values:int list ->
  Agrid_workload.Workload.t ->
  point list

val horizon :
  ?delta_t:int ->
  weights:Objective.weights ->
  values:int list ->
  Agrid_workload.Workload.t ->
  point list

val figure2_delta_t_values : int list
val default_horizon_values : int list

val pp_point : Format.formatter -> point -> unit
