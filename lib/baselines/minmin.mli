(** Min-Min static baseline (Ibarra & Kim [IbK77], the template behind the
    paper's Max-Max): commit, each round, the ready subtask whose earliest
    completion time is globally smallest. Classical comparator used by the
    bench's baseline ablation; not part of the paper's evaluation. *)

open Agrid_sched

type version_policy =
  | Secondary_allowed  (** both versions compete on completion time *)
  | Prefer_primary  (** primary when feasible within tau, else secondary *)

val version_policy_to_string : version_policy -> string

type params = {
  version_policy : version_policy;
  feas_mode : Agrid_core.Feasibility.mode;
  respect_tau : bool;
}

val default_params : params

type outcome = {
  schedule : Schedule.t;
  completed : bool;
  rounds : int;
  wall_seconds : float;
}

val run : ?params:params -> Agrid_workload.Workload.t -> outcome
val pp_outcome : Format.formatter -> outcome -> unit
