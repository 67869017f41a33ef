(* The "simple greedy static heuristic" the paper used to select the time
   constraint tau (Section III): a minimum-completion-time (MCT) list
   scheduler. Tasks are visited in topological order; each is planned — as
   its primary version — on every machine and committed to the machine that
   finishes it earliest. Energy is ignored: the point is the makespan a
   straightforward load-balancing mapper achieves, which the paper then
   imposed as tau to force load balancing. *)

open Agrid_workload
open Agrid_sched

type outcome = {
  schedule : Schedule.t;
  makespan : int;  (** cycles *)
  wall_seconds : float;
}

let run ?(version = Version.Primary) workload =
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let sched = Schedule.create workload in
  let order = Agrid_dag.Dag.topological_order (Workload.dag workload) in
  let m = Workload.n_machines workload in
  Array.iter
    (fun task ->
      let best = ref None in
      for machine = 0 to m - 1 do
        let plan = Schedule.plan sched ~task ~version ~machine ~not_before:0 in
        match !best with
        | Some (_, stop) when stop <= plan.Schedule.pl_stop -> ()
        | _ -> best := Some (plan, plan.Schedule.pl_stop)
      done;
      match !best with
      | Some (plan, _) -> Schedule.commit sched plan
      | None -> assert false (* m >= 1 *))
    order;
  {
    schedule = sched;
    makespan = Schedule.aet sched;
    wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0;
  }
