(** Uniform-random list mapper — the sanity floor for benches and a stress
    generator for the validator (not a paper heuristic). *)

open Agrid_sched

type outcome = {
  schedule : Schedule.t;
  wall_seconds : float;
}

val run : Agrid_prng.Splitmix64.t -> Agrid_workload.Workload.t -> outcome
(** Topological order; uniformly random machine; primary with probability
    0.5. Always completes (constraints unchecked). *)
