(** Lagrangian-relaxation static mapper with subgradient multiplier
    iteration and list-scheduling repair — the [LuH93]/[LuZ00]/[CaS03]
    lineage the paper builds SLRH on (Section II).

    Energy and per-machine time-load constraints are relaxed with
    multipliers; per-task subproblems decouple; multipliers follow
    projected subgradient ascent; the best relaxed assignment is realised
    by list scheduling and repaired by demoting costly primaries until the
    schedule is feasible. *)

open Agrid_sched

type params = {
  iterations : int;  (** subgradient steps (default 60) *)
  eta : float;  (** initial step size (default 0.5) *)
  repair_demotions : int;  (** cap on repair demotions (default: unlimited) *)
}

val default_params : params

type dual_point = {
  iteration : int;
  dual_value : float;  (** upper bound on the primal optimum (weak duality) *)
  n_primary : int;
  max_energy_violation : float;  (** relative, over machines *)
  max_time_violation : float;
}

type outcome = {
  schedule : Schedule.t;
  completed : bool;
  demoted : int;
  dual_bound : float;
      (** best dual value: upper bound on the relaxed problem's optimum *)
  dual_trace : dual_point list;
  wall_seconds : float;
}

val run : ?params:params -> Agrid_workload.Workload.t -> outcome
(** @raise Invalid_argument when [iterations <= 0]. *)

val pp_outcome : Format.formatter -> outcome -> unit
