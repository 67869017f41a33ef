(** Event-driven execution of a planned schedule under ACTUAL durations
    (the ETC matrices are only estimates): keeps the heuristic's
    assignment and per-resource service order, recomputes timing and
    energy with multiplicative gamma noise. Zero noise reproduces the
    planned schedule exactly (tested — an end-to-end cross-check of the
    engine's timing arithmetic). *)

type noise = {
  exec_cv : float;  (** CV of execution-duration noise (0 = exact) *)
  comm_cv : float;  (** CV of transfer-duration noise (0 = exact) *)
}

val noise : ?exec_cv:float -> ?comm_cv:float -> unit -> noise

type result = {
  actual_start : int array;  (** per task, cycles; -1 if unmapped *)
  actual_finish : int array;
  actual_aet : int;
  planned_aet : int;
  aet_inflation : float;  (** actual / planned *)
  actual_energy : float array;  (** per machine *)
  energy_ok : bool;
  deadline_met : bool;  (** actual AET <= tau *)
}

val execute :
  ?rng:Agrid_prng.Splitmix64.t -> ?noise:noise -> Agrid_sched.Schedule.t -> result
