(** Lagrangian-relaxation static mapper with subgradient multiplier
    iteration and list-scheduling repair — the [LuH93]/[LuZ00]/[CaS03]
    lineage the paper builds SLRH on (Section II).

    Energy and per-machine time-load constraints are relaxed with
    multipliers; per-task subproblems decouple; multipliers follow
    projected subgradient ascent; the best relaxed assignment is realised
    by list scheduling and repaired by demoting costly primaries until the
    schedule is feasible. *)

open Agrid_sched

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

val run : Agrid_workload.Workload.t -> outcome
(** 60 subgradient steps from an initial step size of 0.5, then repair
    demotes primaries until the schedule is feasible or none is left. *)

val pp_outcome : Format.formatter -> outcome -> unit
