(* Event-driven execution of a planned schedule under ACTUAL durations.

   The ETC matrices are *estimated* times (that is what the E stands for);
   a deployed resource manager executes its mapping against reality, where
   computations and transfers run longer or shorter than estimated. This
   executor keeps the heuristic's decisions — the (machine, version)
   assignment and the per-resource service order implied by the planned
   start times — and recomputes all timing and energy with multiplicative
   gamma noise (mean 1, configurable CV) on every execution and transfer
   duration. With zero noise it must reproduce the planned schedule
   exactly, which doubles as an end-to-end cross-check of the schedule
   engine's timing arithmetic (tested).

   Dependencies processed in planned-start order form a DAG (every
   resource-order or data edge points to a strictly later planned start),
   so a single pass in that order computes all actual times. *)

open Agrid_workload
open Agrid_platform

type noise = {
  exec_cv : float;  (** CV of execution-duration noise (0 = exact) *)
  comm_cv : float;  (** CV of transfer-duration noise (0 = exact) *)
}

let no_noise = { exec_cv = 0.; comm_cv = 0. }

let noise ?(exec_cv = 0.) ?(comm_cv = 0.) () =
  if exec_cv < 0. || comm_cv < 0. then invalid_arg "Executor.noise: negative CV";
  { exec_cv; comm_cv }

type result = {
  actual_start : int array;  (** per task, cycles *)
  actual_finish : int array;
  actual_aet : int;
  planned_aet : int;
  aet_inflation : float;  (** actual / planned *)
  actual_energy : float array;  (** per machine *)
  energy_ok : bool;  (** every battery still within B(j) under actual costs *)
  deadline_met : bool;  (** actual AET <= tau *)
}

let perturb rng ~cv cycles =
  if cv <= 0. || cycles = 0 then cycles
  else begin
    let factor = Agrid_prng.Dist.gamma_mean_cv rng ~mean:1. ~cv in
    max 1 (int_of_float (Float.round (float_of_int cycles *. factor)))
  end

(* Items in planned-start order; each item waits for its resource
   predecessor(s) and data dependencies, then runs for its actual
   duration. *)
type item =
  | Exec of Agrid_sched.Schedule.placement
  | Xfer of Agrid_sched.Schedule.transfer

let planned_start = function
  | Exec p -> p.Agrid_sched.Schedule.start
  | Xfer t -> t.Agrid_sched.Schedule.start

let execute ?rng ?(noise = no_noise) sched =
  let wl = Agrid_sched.Schedule.workload sched in
  let grid = Workload.grid wl in
  let n = Workload.n_tasks wl and m = Workload.n_machines wl in
  let rng =
    match rng with Some r -> r | None -> Agrid_prng.Splitmix64.of_int 0
  in
  let placements = Agrid_sched.Schedule.placements sched in
  let transfers = Agrid_sched.Schedule.transfers sched in
  let items =
    Array.append (Array.map (fun p -> Exec p) placements)
      (Array.map (fun t -> Xfer t) transfers)
  in
  Array.sort (fun a b -> compare (planned_start a) (planned_start b)) items;
  (* resource clocks: when each lane last becomes free *)
  let machine_free = Array.make m 0 in
  let out_free = Array.make m 0 and in_free = Array.make m 0 in
  let task_start = Array.make n (-1) and task_finish = Array.make n (-1) in
  (* per task: actual arrival time of each input (same-machine: parent
     finish; cross-machine: transfer completion) *)
  let input_ready = Array.make n 0 in
  let energy = Array.make m 0. in
  let dag = Workload.dag wl in
  Array.iter
    (fun item ->
      match item with
      | Exec p ->
          let task = p.Agrid_sched.Schedule.task in
          let machine = p.Agrid_sched.Schedule.machine in
          (* ready: machine free, all inputs arrived *)
          let ready = ref (max machine_free.(machine) input_ready.(task)) in
          (* same-machine parents have no transfer record: wait directly *)
          for k = 0 to Agrid_dag.Dag.in_degree dag task - 1 do
            let parent = Agrid_dag.Dag.parent dag task k in
            match Agrid_sched.Schedule.placement sched parent with
            | Some pp when pp.Agrid_sched.Schedule.machine = machine ->
                ready := max !ready task_finish.(parent)
            | Some _ | None -> ()
          done;
          let planned_duration = p.Agrid_sched.Schedule.stop - p.Agrid_sched.Schedule.start in
          let duration = perturb rng ~cv:noise.exec_cv planned_duration in
          (* the heuristic's clock discipline held work until its planned
             start; keep that lower bound so zero noise reproduces the
             plan exactly *)
          let start = max !ready p.Agrid_sched.Schedule.start in
          task_start.(task) <- start;
          task_finish.(task) <- start + duration;
          machine_free.(machine) <- start + duration;
          energy.(machine) <-
            energy.(machine)
            +. Machine.compute_energy (Grid.machine grid machine)
                 ~seconds:(Units.seconds_of_cycles duration)
      | Xfer t ->
          let src = t.Agrid_sched.Schedule.src and dst = t.Agrid_sched.Schedule.dst in
          let ready =
            max
              (max out_free.(src) in_free.(dst))
              (max task_finish.(t.Agrid_sched.Schedule.src_task) t.Agrid_sched.Schedule.start)
          in
          let planned_duration = t.Agrid_sched.Schedule.stop - t.Agrid_sched.Schedule.start in
          let duration = perturb rng ~cv:noise.comm_cv planned_duration in
          let finish = ready + duration in
          out_free.(src) <- finish;
          in_free.(dst) <- finish;
          let dst_task = t.Agrid_sched.Schedule.dst_task in
          input_ready.(dst_task) <- max input_ready.(dst_task) finish;
          energy.(src) <-
            energy.(src)
            +. Machine.transmit_energy (Grid.machine grid src)
                 ~seconds:(Units.seconds_of_cycles duration))
    items;
  let actual_aet = Array.fold_left max 0 task_finish in
  let planned_aet = Agrid_sched.Schedule.aet sched in
  let energy_ok = ref true in
  for j = 0 to m - 1 do
    if energy.(j) > (Grid.machine grid j).Machine.battery +. 1e-9 then
      energy_ok := false
  done;
  {
    actual_start = task_start;
    actual_finish = task_finish;
    actual_aet;
    planned_aet;
    aet_inflation =
      (if planned_aet = 0 then 1.
       else float_of_int actual_aet /. float_of_int planned_aet);
    actual_energy = energy;
    energy_ok = !energy_ok;
    deadline_met = actual_aet <= Workload.tau wl;
  }
