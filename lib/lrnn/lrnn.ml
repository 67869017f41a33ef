(* Lagrangian-relaxation static mapper, in the lineage the paper builds on:
   Luh & Hoitomt's Lagrangian relaxation with list-scheduling repair
   [LuH93], the Lagrangian-relaxation "neural network" multiplier iteration
   of Luh, Zhao & Thakur [LuZ00], and the authors' own unpublished static
   mapper [CaS03] that the SLRH paper cites as its starting point
   (Section II).

   The static mapping problem: choose a (machine, version) pair for every
   subtask, maximising the number of primary versions subject to
   per-machine energy budgets B(j) and the deadline tau. Relaxing the
   coupling constraints with nonnegative multipliers gives

     L(x, lambda, nu) =  sum_i primary(x_i)
                       - sum_j lambda_j (E_j(x) - B_j)
                       - sum_j nu_j     (T_j(x) - tau)

   where E_j / T_j are machine j's total assigned energy / busy time (the
   per-machine time load is the classical surrogate for the makespan
   constraint; precedence is ignored in the relaxation and restored by the
   repair phase, exactly as in [LuH93]). For fixed multipliers the problem
   decouples into one trivial argmax per subtask; the multipliers follow a
   projected subgradient ascent on the dual ("neural network" update in
   [LuZ00]'s terminology). Because the relaxed solution is usually
   infeasible, a final list-scheduling pass builds a real schedule from the
   chosen pairs and, if energy or time is still violated, greedily demotes
   the costliest primaries to secondaries. *)

open Agrid_workload
open Agrid_sched
open Agrid_platform

type params = {
  iterations : int;  (** subgradient steps (default 60) *)
  eta : float;  (** initial multiplier step size (default 0.5) *)
  repair_demotions : int;
      (** max primaries demoted to secondary during repair (default: all) *)
}

let default_params = { iterations = 60; eta = 0.5; repair_demotions = max_int }

type dual_point = {
  iteration : int;
  dual_value : float;
  n_primary : int;  (** primaries chosen by the relaxed solution *)
  max_energy_violation : float;  (** relative, over machines *)
  max_time_violation : float;
}

type outcome = {
  schedule : Schedule.t;
  completed : bool;
  demoted : int;  (** primaries demoted during repair *)
  dual_bound : float;
      (** best dual value seen: an upper bound on the optimal T100 of the
          relaxed (precedence-free) problem *)
  dual_trace : dual_point list;
  wall_seconds : float;
}

(* Energy and busy-time of one (task, machine, version) choice. *)
let cost wl ~task ~machine ~version =
  let cycles = Workload.exec_cycles wl ~task ~machine ~version in
  let energy = Workload.exec_energy wl ~task ~machine ~version in
  (energy, float_of_int cycles)

(* Per-task argmax of the relaxed objective for fixed multipliers. *)
let relaxed_choice wl ~lambda ~nu ~task =
  let m = Workload.n_machines wl in
  let best = ref None in
  for machine = 0 to m - 1 do
    List.iter
      (fun version ->
        let energy, time = cost wl ~task ~machine ~version in
        let reward = if Version.is_primary version then 1. else 0. in
        let value = reward -. (lambda.(machine) *. energy) -. (nu.(machine) *. time) in
        match !best with
        | Some (_, _, v) when v >= value -> ()
        | _ -> best := Some (machine, version, value))
      Version.all
  done;
  match !best with Some c -> c | None -> assert false (* m >= 1 *)

(* One dual evaluation: relaxed assignment, its loads, and the dual value
   L(x*, lambda, nu). *)
let dual_step wl ~lambda ~nu =
  let n = Workload.n_tasks wl and m = Workload.n_machines wl in
  let grid = Workload.grid wl in
  let tau = float_of_int (Workload.tau wl) in
  let assignment = Array.make n (0, Version.Secondary) in
  let energy_load = Array.make m 0. and time_load = Array.make m 0. in
  let primal_reward = ref 0. and relaxed_value = ref 0. in
  for task = 0 to n - 1 do
    let machine, version, value = relaxed_choice wl ~lambda ~nu ~task in
    assignment.(task) <- (machine, version);
    let energy, time = cost wl ~task ~machine ~version in
    energy_load.(machine) <- energy_load.(machine) +. energy;
    time_load.(machine) <- time_load.(machine) +. time;
    if Version.is_primary version then primal_reward := !primal_reward +. 1.;
    relaxed_value := !relaxed_value +. value
  done;
  (* dual value: relaxed sum plus the constant multiplier terms *)
  let dual = ref !relaxed_value in
  for j = 0 to m - 1 do
    let b = (Grid.machine grid j).Agrid_platform.Machine.battery in
    dual := !dual +. (lambda.(j) *. b) +. (nu.(j) *. tau)
  done;
  (assignment, energy_load, time_load, !dual, int_of_float !primal_reward)

(* Projected subgradient ascent on (lambda, nu). *)
let optimise params wl =
  let m = Workload.n_machines wl in
  let grid = Workload.grid wl in
  let tau = float_of_int (Workload.tau wl) in
  let lambda = Array.make m 0. and nu = Array.make m 0. in
  let trace = ref [] in
  let last_assignment = ref None and best_dual = ref infinity in
  for k = 0 to params.iterations - 1 do
    let assignment, energy_load, time_load, dual, n_primary =
      dual_step wl ~lambda ~nu
    in
    (* weak duality: the smallest dual value seen is the tightest upper
       bound on the primal optimum. The repair candidate is the FINAL
       iteration's assignment — its multipliers have absorbed the
       constraint pressure (early iterations, multipliers near 0, pick
       all-primary assignments that the repair would shred). *)
    if dual < !best_dual then best_dual := dual;
    last_assignment := Some assignment;
    let step = params.eta /. sqrt (float_of_int (k + 1)) in
    let max_ev = ref 0. and max_tv = ref 0. in
    for j = 0 to m - 1 do
      let b = (Grid.machine grid j).Agrid_platform.Machine.battery in
      let energy_violation = (energy_load.(j) -. b) /. b in
      let time_violation = (time_load.(j) -. tau) /. tau in
      if energy_violation > !max_ev then max_ev := energy_violation;
      if time_violation > !max_tv then max_tv := time_violation;
      lambda.(j) <- Float.max 0. (lambda.(j) +. (step *. energy_violation /. b));
      nu.(j) <- Float.max 0. (nu.(j) +. (step *. time_violation /. tau))
    done;
    trace :=
      {
        iteration = k;
        dual_value = dual;
        n_primary;
        max_energy_violation = !max_ev;
        max_time_violation = !max_tv;
      }
      :: !trace
  done;
  let assignment =
    match !last_assignment with Some a -> a | None -> assert false (* iterations >= 1 *)
  in
  (assignment, !best_dual, List.rev !trace)

(* Repair phase 1 ([LuH93]): realise the relaxed assignment as an actual
   schedule by list-scheduling in topological order with the chosen
   (machine, version) pairs — precedence, channels and machine exclusivity
   come back here. *)
let realise wl assignment =
  let sched = Schedule.create wl in
  Array.iter
    (fun task ->
      let machine, version = assignment.(task) in
      let plan = Schedule.plan sched ~task ~version ~machine ~not_before:0 in
      Schedule.commit sched plan)
    (Agrid_dag.Dag.topological_order (Workload.dag wl));
  sched

(* Repair phase 2: while the realised schedule violates energy or time,
   demote the primary with the largest (energy + time) footprint on an
   overloaded resource and rebuild. Terminates: each pass removes one
   primary, and an all-secondary assignment is the fallback. *)
let violations wl sched =
  let m = Workload.n_machines wl in
  let grid = Workload.grid wl in
  let over_energy = ref [] in
  for j = 0 to m - 1 do
    if Schedule.energy_used sched j > (Grid.machine grid j).Agrid_platform.Machine.battery
    then over_energy := j :: !over_energy
  done;
  let over_time = Schedule.aet sched > Workload.tau wl in
  (!over_energy, over_time)

let demote_candidate wl sched ~over_energy ~over_time assignment =
  let worst = ref None in
  Array.iter
    (fun (p : Schedule.placement) ->
      let machine, version = assignment.(p.Schedule.task) in
      if Version.is_primary version then begin
        let relevant =
          List.mem machine over_energy
          || (over_time && p.Schedule.stop = Schedule.aet sched)
          || (over_time && over_energy = [])
        in
        if relevant then begin
          let energy, time = cost wl ~task:p.Schedule.task ~machine ~version in
          let footprint = energy +. (time /. float_of_int (Workload.tau wl)) in
          match !worst with
          | Some (_, f) when f >= footprint -> ()
          | _ -> worst := Some (p.Schedule.task, footprint)
        end
      end)
    (Schedule.placements sched);
  Option.map fst !worst

let run ?(params = default_params) wl =
  if params.iterations <= 0 then invalid_arg "Lrnn.run: iterations must be positive";
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let assignment, dual_bound, dual_trace = optimise params wl in
  let assignment = Array.copy assignment in
  let demoted = ref 0 in
  let sched = ref (realise wl assignment) in
  let continue_ = ref true in
  while !continue_ do
    let over_energy, over_time = violations wl !sched in
    if over_energy = [] && not over_time then continue_ := false
    else if !demoted >= params.repair_demotions then continue_ := false
    else begin
      match demote_candidate wl !sched ~over_energy ~over_time assignment with
      | None -> continue_ := false (* nothing left to demote *)
      | Some task ->
          let machine, _ = assignment.(task) in
          assignment.(task) <- (machine, Version.Secondary);
          incr demoted;
          sched := realise wl assignment
    end
  done;
  {
    schedule = !sched;
    completed = Schedule.all_mapped !sched;
    demoted = !demoted;
    dual_bound;
    dual_trace;
    wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0;
  }

let pp_outcome ppf o =
  Fmt.pf ppf "%a completed=%b demoted=%d wall=%.3fs" Schedule.pp o.schedule
    o.completed o.demoted o.wall_seconds
