(** The paper's two-stage (alpha, beta) optimisation (Section VII): coarse
    0.1 sweep over the weight simplex, then 0.02 refinement around the
    optimum; only runs that map every subtask within energy and time
    constraints are admissible. *)

open Agrid_core

type run_result = {
  weights : Objective.weights;
  t100 : int;
  aet : int;
  tec : float;
  feasible : bool;  (** complete, structurally valid, within energy and tau *)
  wall_seconds : float;
}

type runner = Objective.weights -> Agrid_workload.Workload.t -> run_result
(** A tunable heuristic: weights in, validated outcome out. *)

val slrh_runner : ?delta_t:int -> ?horizon:int -> Slrh.variant -> runner
val maxmax_runner : runner

val simplex_grid : step:float -> (float * float) list
(** All (alpha, beta) with nonnegative entries summing to <= 1. *)

val refinement_grid :
  centre:float * float -> radius:float -> step:float -> (float * float) list

type result = {
  best : run_result option;  (** [None] if no feasible weight point exists *)
  evaluations : int;
  feasible_points : (float * float) list;
}

val search :
  ?coarse_step:float ->
  ?fine_step:float ->
  ?fine_radius:float ->
  runner ->
  Agrid_workload.Workload.t ->
  result

val better : run_result -> run_result -> bool
(** [better a b]: higher T100, ties toward lower TEC then lower AET. *)

val pp_run_result : Format.formatter -> run_result -> unit
