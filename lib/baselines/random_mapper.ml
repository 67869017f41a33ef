(* Uniform-random list mapper: topological task order, uniformly random
   machine and version for each subtask. Not a paper heuristic — it is the
   sanity floor for benches (any credible heuristic must beat it on T100
   within constraints) and a stress generator for the schedule validator. *)

open Agrid_workload
open Agrid_sched

type outcome = {
  schedule : Schedule.t;
  wall_seconds : float;
}

let run ?(primary_bias = 0.5) rng workload =
  if primary_bias < 0. || primary_bias > 1. then
    invalid_arg "Random_mapper.run: primary_bias outside [0,1]";
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let sched = Schedule.create workload in
  let order = Agrid_dag.Dag.topological_order (Workload.dag workload) in
  let m = Workload.n_machines workload in
  Array.iter
    (fun task ->
      let machine = Agrid_prng.Splitmix64.next_int rng m in
      let version =
        if Agrid_prng.Dist.bernoulli rng ~p:primary_bias then Version.Primary
        else Version.Secondary
      in
      let plan = Schedule.plan sched ~task ~version ~machine ~not_before:0 in
      Schedule.commit sched plan)
    order;
  { schedule = sched; wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0 }
