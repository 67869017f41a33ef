(* Min-Min static baseline, after Ibarra & Kim [IbK77] — the template the
   paper's Max-Max derives from (Section V). Each round:

   1. for every ready subtask, find the (version, machine) placement with
      the earliest completion time among energy-feasible, tau-compliant
      placements (the version choice is governed by [version_policy]);
   2. among those per-task minima, commit the subtask whose minimum
      completion time is smallest ("min" of the "min"s).

   Not a heuristic from the paper's evaluation; included as the classical
   comparator the paper cites, used by the bench's baseline ablation. *)

open Agrid_workload
open Agrid_sched
open Agrid_core

type version_policy =
  | Secondary_allowed  (** both versions compete on completion time *)
  | Prefer_primary  (** primary when feasible within tau, else secondary *)

let version_policy_to_string = function
  | Secondary_allowed -> "secondary-allowed"
  | Prefer_primary -> "prefer-primary"

type params = {
  version_policy : version_policy;
  feas_mode : Feasibility.mode;
  respect_tau : bool;
}

let default_params =
  {
    version_policy = Prefer_primary;
    feas_mode = Feasibility.Conservative;
    respect_tau = true;
  }

type outcome = {
  schedule : Schedule.t;
  completed : bool;
  rounds : int;
  wall_seconds : float;
}

(* Earliest-completion placement of [task] restricted to [version], or None
   when no machine admits it. *)
let best_placement params sched ~task ~version =
  let wl = Schedule.workload sched in
  let tau = Workload.tau wl in
  let best = ref None in
  for machine = 0 to Workload.n_machines wl - 1 do
    if Feasibility.version_feasible ~mode:params.feas_mode sched ~task ~machine ~version
    then begin
      let plan = Schedule.plan sched ~task ~version ~machine ~not_before:0 in
      if (not params.respect_tau) || plan.Schedule.pl_stop <= tau then begin
        match !best with
        | Some (p, _) when p.Schedule.pl_stop <= plan.Schedule.pl_stop -> ()
        | _ -> best := Some (plan, plan.Schedule.pl_stop)
      end
    end
  done;
  !best

let best_for_task params sched ~task =
  match params.version_policy with
  | Prefer_primary -> begin
      match best_placement params sched ~task ~version:Version.Primary with
      | Some _ as p -> p
      | None -> best_placement params sched ~task ~version:Version.Secondary
    end
  | Secondary_allowed -> begin
      let p = best_placement params sched ~task ~version:Version.Primary in
      let s = best_placement params sched ~task ~version:Version.Secondary in
      match (p, s) with
      | Some (_, tp), Some ((_, ts) as sv) -> if ts <= tp then Some sv else p
      | (Some _ as v), None | None, (Some _ as v) -> v
      | None, None -> None
    end

let run ?(params = default_params) workload =
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let sched = Schedule.create workload in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && not (Schedule.all_mapped sched) do
    incr rounds;
    let best = ref None in
    List.iter
      (fun task ->
        match best_for_task params sched ~task with
        | None -> ()
        | Some (plan, stop) -> (
            match !best with
            | Some (_, s) when s <= stop -> ()
            | _ -> best := Some (plan, stop)))
      (Schedule.ready_unmapped sched);
    match !best with
    | Some (plan, _) -> Schedule.commit sched plan
    | None -> continue_ := false
  done;
  {
    schedule = sched;
    completed = Schedule.all_mapped sched;
    rounds = !rounds;
    wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0;
  }

let pp_outcome ppf o =
  Fmt.pf ppf "%a completed=%b rounds=%d wall=%.3fs" Schedule.pp o.schedule
    o.completed o.rounds o.wall_seconds
