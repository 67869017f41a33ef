(* The Max-Max static baseline (paper Section V), built on the Min-Min
   template of Ibarra & Kim [IbK77] with the SLRH objective function:

   - the pool U holds every ready, unmapped (subtask, version) pair whose
     energy requirement is independently feasible on at least the machine
     under consideration — unlike SLRH, primary and secondary versions of
     the same subtask may both be in U;
   - each round plans every (pair, machine) combination, evaluates the
     exact post-commit objective, and commits the globally maximising
     (subtask, version, machine) triplet;
   - being static, it plans from time 0 and may slot work into earlier
     schedule "holes" whenever precedence and channel constraints allow
     (Schedule.plan's first-fit search provides exactly that);
   - placements that would finish beyond tau are inadmissible. The paper
     states Max-Max mappings had to comply with tau; a static mapper knows
     tau in advance, and without this gate the objective's positive AET
     term (and energy-minimal slow-machine placement) would stretch AET
     arbitrarily past tau for every weight choice. DESIGN.md section 5
     records the interpretation; [respect_tau=false] is the ablation.
   - rounds repeat until all subtasks are mapped or nothing is feasible. *)

open Agrid_workload
open Agrid_sched
open Agrid_core

type params = {
  weights : Objective.weights;
  feas_mode : Feasibility.mode;
  respect_tau : bool;
}

let default_params weights =
  { weights; feas_mode = Feasibility.Conservative; respect_tau = true }

type stats = {
  rounds : int;
  plans_evaluated : int;
}

type outcome = {
  schedule : Schedule.t;
  completed : bool;
  stats : stats;
  wall_seconds : float;
}

(* Best (plan, objective) over all feasible (task, version, machine)
   triplets for the current pool, or None when the pool is empty. *)
let best_triplet params sched plans_evaluated =
  let wl = Schedule.workload sched in
  let m = Workload.n_machines wl in
  let tau = Workload.tau wl in
  let ready = Schedule.ready_unmapped sched in
  let best = ref None in
  List.iter
    (fun task ->
      for machine = 0 to m - 1 do
        List.iter
          (fun version ->
            if
              Feasibility.version_feasible ~mode:params.feas_mode sched ~task ~machine
                ~version
            then begin
              incr plans_evaluated;
              let plan = Schedule.plan sched ~task ~version ~machine ~not_before:0 in
              if (not params.respect_tau) || plan.Schedule.pl_stop <= tau then begin
                let value = Objective.after_plan params.weights sched plan in
                match !best with
                | Some (_, best_value) when best_value >= value -> ()
                | _ -> best := Some (plan, value)
              end
            end)
          Version.all
      done)
    ready;
  !best

let run params workload =
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let sched = Schedule.create workload in
  let rounds = ref 0 in
  let plans_evaluated = ref 0 in
  let continue_ = ref true in
  while !continue_ && not (Schedule.all_mapped sched) do
    incr rounds;
    match best_triplet params sched plans_evaluated with
    | Some (plan, _) -> Schedule.commit sched plan
    | None -> continue_ := false (* nothing feasible: starved *)
  done;
  {
    schedule = sched;
    completed = Schedule.all_mapped sched;
    stats = { rounds = !rounds; plans_evaluated = !plans_evaluated };
    wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0;
  }

let pp_outcome ppf o =
  Fmt.pf ppf "%a completed=%b rounds=%d plans=%d wall=%.3fs" Schedule.pp
    o.schedule o.completed o.stats.rounds o.stats.plans_evaluated o.wall_seconds
