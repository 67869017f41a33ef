(* The global Lagrangian objective of paper Section IV:

     ObjFn(alpha, beta, gamma) =
         alpha * T100/|T|  -  beta * TEC/TSE  +  gamma * AET/tau

   All three terms are normalised to [0,1]; the weights are nonnegative and
   sum to 1, confining the objective to [-1, 1] (in practice [0,1] when
   beta's term is small). The hard system constraints appear only as soft
   biases here — feasibility is enforced by the candidate-pool check and by
   post-run validation, as in the paper.

   The sign of the AET term is positive on purpose: the paper found that
   penalising AET produced short schedules with poor T100, so the final
   term *rewards* using the available time up to tau. *)

open Agrid_workload
open Agrid_sched

(* [aet_sign] reproduces the paper's design discussion: the published
   objective REWARDS late completion (+gamma, "encourage use of all of the
   available time"); the rejected alternative penalised it and "caused the
   heuristic to produce very short AET solutions, but with correspondingly
   lower T100 values". [Penalise] exists for the bench ablation that
   reproduces that claim. *)
type aet_sign = Reward | Penalise

type weights = { alpha : float; beta : float; gamma : float; aet_sign : aet_sign }

let make_weights ~alpha ~beta =
  if alpha < 0. || beta < 0. then
    invalid_arg "Objective.make_weights: weights must be nonnegative";
  let gamma = 1. -. alpha -. beta in
  if gamma < -.1e-9 then
    invalid_arg "Objective.make_weights: alpha + beta must not exceed 1";
  { alpha; beta; gamma = Float.max 0. gamma; aet_sign = Reward }

let weights_exact ~alpha ~beta ~gamma =
  if alpha < 0. || beta < 0. || gamma < 0. then
    invalid_arg "Objective.weights_exact: weights must be nonnegative";
  if Float.abs (alpha +. beta +. gamma -. 1.) > 1e-9 then
    invalid_arg "Objective.weights_exact: weights must sum to 1";
  { alpha; beta; gamma; aet_sign = Reward }

let with_aet_sign aet_sign w = { w with aet_sign }

let pp_weights ppf w =
  Fmt.pf ppf "(a=%.3f b=%.3f g=%s%.3f)" w.alpha w.beta
    (match w.aet_sign with Reward -> "" | Penalise -> "-")
    w.gamma

(* The objective split into its three weighted terms, for the decision
   ledger's commit records. [total] is computed with the exact operation
   order the scalar [value] always used (t100 term, minus energy term,
   plus signed AET term), so deriving [value] from [value_parts] is
   bit-identical — pinned by the no-op-sink regression tests. *)
type parts = {
  t100_term : float;  (* alpha * T100/|T| *)
  energy_term : float;  (* beta * TEC/TSE, subtracted in the total *)
  aet_term : float;  (* gamma * AET/tau, already carrying aet_sign *)
  total : float;
}

let value_parts w ~t100 ~n_tasks ~tec ~tse ~aet ~tau =
  let aet_raw = w.gamma *. (float_of_int aet /. float_of_int tau) in
  let aet_term = match w.aet_sign with Reward -> aet_raw | Penalise -> -.aet_raw in
  let t100_term = w.alpha *. (float_of_int t100 /. float_of_int n_tasks) in
  let energy_term = w.beta *. (tec /. tse) in
  { t100_term; energy_term; aet_term; total = t100_term -. energy_term +. aet_term }

let value w ~t100 ~n_tasks ~tec ~tse ~aet ~tau =
  (value_parts w ~t100 ~n_tasks ~tec ~tse ~aet ~tau).total

let of_schedule w sched =
  let wl = Schedule.workload sched in
  value w ~t100:(Schedule.n_primary sched) ~n_tasks:(Workload.n_tasks wl)
    ~tec:(Schedule.tec sched)
    ~tse:(Workload.total_system_energy wl)
    ~aet:(Schedule.aet sched) ~tau:(Workload.tau wl)

(* Objective as it would stand after committing [plan] (exact; used by
   Max-Max, whose selection rule is the maximum objective increase). *)
let after_plan w sched plan =
  let wl = Schedule.workload sched in
  let t100, tec, aet = Schedule.totals_after sched plan in
  value w ~t100 ~n_tasks:(Workload.n_tasks wl) ~tec
    ~tse:(Workload.total_system_energy wl)
    ~aet:(Schedule.aet sched |> max aet) ~tau:(Workload.tau wl)

(* The parent-derived inputs of the candidate estimate. Once a task is
   poolable every parent is mapped, and placements never change within one
   scheduler run — so this pair is a fixed point of the task's parents and
   the destination machine, and the SoA arena stores it per
   (task, machine) through [parent_bound_into] below. [ready_floor]
   starts at [min_int], the identity of integer max, so
   [max now ready_floor] below reassociates the original
   fold (which started at [now]) without changing any value; [comm_energy]
   accumulates in parent-edge array order, so the cached sum is the same
   float the inline fold produced. *)
type parent_bound = { ready_floor : int; comm_energy : float }

let parent_bound sched ~task ~machine =
  let wl = Schedule.workload sched in
  let grid = Workload.grid wl in
  let dag = Workload.dag wl in
  let ready = ref min_int in
  let comm_energy = ref 0. in
  for k = 0 to Agrid_dag.Dag.in_degree dag task - 1 do
    let edge = Agrid_dag.Dag.parent_edge dag task k in
    match Schedule.placement sched (Agrid_dag.Dag.src dag edge) with
    | None -> invalid_arg "Objective.estimate: unmapped parent"
    | Some pp ->
        if pp.Schedule.machine = machine then ready := max !ready pp.Schedule.stop
        else begin
          let bits = Workload.edge_bits wl ~edge ~parent_version:pp.Schedule.version in
          let cycles =
            Agrid_platform.Comm.transfer_cycles grid ~src:pp.Schedule.machine
              ~dst:machine ~bits
          in
          comm_energy :=
            !comm_energy
            +. Agrid_platform.Comm.transfer_energy grid ~src:pp.Schedule.machine
                 ~dst:machine ~bits;
          ready := max !ready (pp.Schedule.stop + cycles)
        end
  done;
  { ready_floor = !ready; comm_energy = !comm_energy }

(* Cheap candidate score used by SLRH when ordering the pool (the paper
   scores the pool before computing exact start times; see DESIGN.md
   section 5). The finish estimate is a lower bound: latest parent finish
   plus that parent's transfer time if it sits on another machine, ignoring
   channel contention and machine busy gaps. [estimate_parts] keeps the
   term decomposition for the ledger; [estimate] is its total. The
   [_with] forms take a precomputed {!parent_bound}, so one computation
   serves both versions of a candidate. *)
let estimate_parts_with w sched ~bound ~task ~version ~machine ~now =
  let wl = Schedule.workload sched in
  let ready = max now bound.ready_floor in
  let start = max ready (Timeline.horizon (Schedule.exec_timeline sched machine)) in
  let finish = start + Workload.exec_cycles wl ~task ~machine ~version in
  let t100 =
    Schedule.n_primary sched + if Version.is_primary version then 1 else 0
  in
  let tec =
    Schedule.tec sched
    +. Workload.exec_energy wl ~task ~machine ~version
    +. bound.comm_energy
  in
  let aet = max (Schedule.aet sched) finish in
  value_parts w ~t100 ~n_tasks:(Workload.n_tasks wl) ~tec
    ~tse:(Workload.total_system_energy wl)
    ~aet ~tau:(Workload.tau wl)

let estimate_parts w sched ~task ~version ~machine ~now =
  estimate_parts_with w sched
    ~bound:(parent_bound sched ~task ~machine)
    ~task ~version ~machine ~now

let estimate w sched ~task ~version ~machine ~now =
  (estimate_parts w sched ~task ~version ~machine ~now).total

(* Best version for a candidate under the objective: evaluate both and keep
   the maximiser (paper Section IV: "selected the version that maximised
   the value of the objective function"). The bound is version-independent,
   so one computation serves both evaluations. *)
let best_version_with w sched ~bound ~task ~machine ~now =
  let est version =
    (estimate_parts_with w sched ~bound ~task ~version ~machine ~now).total
  in
  let ep = est Version.Primary in
  let es = est Version.Secondary in
  if ep >= es then (Version.Primary, ep) else (Version.Secondary, es)

let best_version ?(obs = Agrid_obs.Sink.noop) w sched ~task ~machine ~now =
  Agrid_obs.Sink.add obs "objective/version_evals" 2;
  best_version_with w sched
    ~bound:(parent_bound sched ~task ~machine)
    ~task ~machine ~now

(* ---- flat (SoA) batch scoring ----

   The arena path of the scheduler stores parent bounds in two flat
   arrays (int ready floors, float comm energies) instead of boxed
   {!parent_bound} records, and scores a whole pool in one pass with
   every schedule-wide input hoisted out of the loop. Bit-identity with
   the rescan path's [best_version] rests on two facts:

   - hoisting is sound because scoring never mutates the schedule, so
     every per-candidate read ([Timeline.horizon], [Schedule.tec], ...)
     returns the identical value the boxed path reads;
   - every float expression below is the same operation sequence
     [parent_bound] / [estimate_parts_with] / [value_parts] evaluate, in
     the same order — pinned by the QCheck batch-equals-fold property
     and the SoA differential pairs. *)

(* [parent_bound], accumulated directly into the destination slots: the
   same parent-edge iteration order, the same [max] folds from the same
   identities ([min_int] / [0.]), the same float additions — so the
   stored pair is bit-identical to the record [parent_bound] returns.
   Each transfer is priced through the run's rate table: the edge's bits
   staged in an array slot, its cycles computed once, and its energy
   derived from those cycles (which [Comm.transfer_energy] recomputes
   from the bits), so no float is boxed. *)
let parent_bound_into sched ~task ~machine ~slot bound_ready bound_comm =
  let wl = Schedule.workload sched in
  let tb = Schedule.rates sched in
  let stage = Agrid_platform.Comm.staging tb in
  let dag = Workload.dag wl in
  bound_ready.(slot) <- min_int;
  bound_comm.(slot) <- 0.;
  for k = 0 to Agrid_dag.Dag.in_degree dag task - 1 do
    let edge = Agrid_dag.Dag.parent_edge dag task k in
    match Schedule.placement sched (Agrid_dag.Dag.src dag edge) with
    | None -> invalid_arg "Objective.estimate: unmapped parent"
    | Some pp ->
        let src = pp.Schedule.machine in
        if src = machine then begin
          if pp.Schedule.stop > bound_ready.(slot) then
            bound_ready.(slot) <- pp.Schedule.stop
        end
        else begin
          Workload.edge_bits_into wl ~edge ~parent_version:pp.Schedule.version stage 0;
          let cycles =
            Agrid_platform.Comm.transfer_cycles_at tb ~src ~dst:machine stage 0
          in
          Agrid_platform.Comm.transfer_energy_into tb ~src ~cycles stage 0;
          bound_comm.(slot) <- bound_comm.(slot) +. stage.(0);
          let r = pp.Schedule.stop + cycles in
          if r > bound_ready.(slot) then bound_ready.(slot) <- r
        end
  done

(* Score the pool [tasks.(0 .. n-1)] for [machine] in one pass, writing
   the best version and score per slot into [versions] / [scores].
   Parent bounds are priced lazily into the flat store (valid for the
   whole run). Equals [best_version w sched ~task ~machine ~now] per
   candidate, bit for bit. Both versions are evaluated inline — no local
   function, no cross-module call per candidate: cycles come from the
   workload's flat table, and execution energy is
   [rate *. (float_of_int c /. cps)], the exact expression
   [Machine.compute_energy] of [Units.seconds_of_cycles] evaluates. On
   the steady-state path (noop sink, warm bounds) the pass performs no
   heap allocation: every float stays in an unboxed local and flows
   straight into a float-array write. *)
let score_into w sched ~machine ~now ~n ~tasks ~bound_ready ~bound_comm
    ~bound_known ~versions ~scores =
  if n > 0 then begin
    let wl = Schedule.workload sched in
    let stride = Workload.n_machines wl in
    let cycles = Workload.cycles wl in
    let rate =
      (Agrid_platform.Grid.machine (Workload.grid wl) machine)
        .Agrid_platform.Machine.compute_rate
    in
    let cps = float_of_int Agrid_platform.Units.cycles_per_second in
    let horizon = Timeline.horizon (Schedule.exec_timeline sched machine) in
    let n_primary = Schedule.n_primary sched in
    let tec0 = Schedule.tec sched in
    let aet0 = Schedule.aet sched in
    let tse = Workload.total_system_energy wl in
    let n_tasks_f = float_of_int (Workload.n_tasks wl) in
    let tau_f = float_of_int (Workload.tau wl) in
    let penalise = match w.aet_sign with Reward -> false | Penalise -> true in
    (* the T100 terms do not depend on the candidate *)
    let t100_primary = w.alpha *. (float_of_int (n_primary + 1) /. n_tasks_f) in
    let t100_secondary = w.alpha *. (float_of_int n_primary /. n_tasks_f) in
    for k = 0 to n - 1 do
      let task = tasks.(k) in
      let slot = (task * stride) + machine in
      if Bytes.get bound_known slot = '\000' then begin
        parent_bound_into sched ~task ~machine ~slot bound_ready bound_comm;
        Bytes.set bound_known slot '\001'
      end;
      let rf = bound_ready.(slot) in
      let comm = bound_comm.(slot) in
      let ready = if now >= rf then now else rf in
      let start = if ready >= horizon then ready else horizon in
      (* [estimate_parts_with]'s total, primary then secondary: the same
         float operations in the same order as [value_parts] *)
      let c = 2 * slot in
      let cp = cycles.(c) in
      let finish = start + cp in
      let tec = tec0 +. (rate *. (float_of_int cp /. cps)) +. comm in
      let aet = if aet0 >= finish then aet0 else finish in
      let aet_raw = w.gamma *. (float_of_int aet /. tau_f) in
      let aet_term = if penalise then -.aet_raw else aet_raw in
      let ep = t100_primary -. (w.beta *. (tec /. tse)) +. aet_term in
      let cs = cycles.(c + 1) in
      let finish = start + cs in
      let tec = tec0 +. (rate *. (float_of_int cs /. cps)) +. comm in
      let aet = if aet0 >= finish then aet0 else finish in
      let aet_raw = w.gamma *. (float_of_int aet /. tau_f) in
      let aet_term = if penalise then -.aet_raw else aet_raw in
      let es = t100_secondary -. (w.beta *. (tec /. tse)) +. aet_term in
      if ep >= es then begin
        versions.(k) <- Version.Primary;
        scores.(k) <- ep
      end
      else begin
        versions.(k) <- Version.Secondary;
        scores.(k) <- es
      end
    done
  end

(* Histogram bucket bounds covering the objective's analytic range [-1, 1]
   (the weights are nonnegative and sum to 1, and every term is
   normalised), for score-distribution telemetry. *)
let score_bounds = Agrid_obs.Hist.linear_bounds ~lo:(-1.) ~hi:1. ~n:40
