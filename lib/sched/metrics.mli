(** Descriptive utilisation metrics of a schedule (per-machine busy
    fractions, energy margins, version mix). {!Validate} owns correctness;
    this module owns statistics for reports and examples. *)

type machine_metrics = {
  machine : int;
  n_tasks : int;
  n_primary : int;
  exec_busy_cycles : int;
  exec_busy_fraction : float;  (** of AET *)
  out_busy_cycles : int;
  in_busy_cycles : int;
  energy_used : float;
  energy_fraction : float;  (** of B(j) *)
}

type t = {
  per_machine : machine_metrics list;
  t100 : int;
  n_mapped : int;
  aet : int;
  tec : float;
  comm_energy : float;
  comm_energy_fraction : float;  (** of TEC *)
  primary_fraction : float;  (** of mapped tasks *)
  makespan_utilisation : float;  (** AET / tau *)
}

val compute : Schedule.t -> t
val pp : Format.formatter -> t -> unit
