(* Candidate-pool feasibility (paper Section IV): a subtask may enter the
   pool U for machine j iff
     (a) all of its parents are already mapped, and
     (b) machine j retains enough energy to run at least the SECONDARY
         version AND push all of its output data to its children.

   Condition (b) cannot be exact — the children are unmapped, so their
   link bandwidths are unknown. The paper resolves this with a worst-case
   assumption (every child on the lowest-bandwidth connection in the grid);
   [Optimistic] is the ablation variant that assumes children are co-located
   (zero communication energy), isolating how much the conservatism costs. *)

open Agrid_workload
open Agrid_sched

type mode =
  | Conservative
  | Optimistic
  | Chance of { p : float; sigma : float }

let mode_to_string = function
  | Conservative -> "conservative"
  | Optimistic -> "optimistic"
  | Chance { p; sigma } -> Fmt.str "chance(p=%g,sigma=%g)" p sigma

(* Smart constructor so an invalid service probability or sigma fails
   loudly at configuration time, not silently inside a pool filter. *)
let chance ~p ~sigma =
  ignore (Agrid_lagrange.Chance.inflation ~p ~sigma);
  Chance { p; sigma }

(* The worst-case child-communication surcharge for the mode. The chance
   mode keeps the conservative bound — its margin handles estimation
   error, not the unknown child placement. *)
let comm_bound ~mode wl ~task ~machine ~version =
  match mode with
  | Optimistic -> 0.
  | Conservative | Chance _ ->
      Workload.worst_case_child_comm_energy wl ~task ~machine ~version

(* Gaussian chance margin on a nominal energy bound: inflate by
   (1 + z * sigma), z = Phi^-1(p). Conservative/Optimistic pass through
   untouched (no multiplication), keeping those modes bit-identical to
   their historical selves; chance with p = 0.5 or sigma = 0 has factor
   exactly 1, and x *. 1. = x, so it coincides with Conservative bit for
   bit (a differential pair in the test suite). *)
let[@inline] apply_margin ~mode req =
  match mode with
  | Conservative | Optimistic -> req
  | Chance { p; sigma } -> req *. Agrid_lagrange.Chance.inflation ~p ~sigma

(* Typed admissibility verdicts. The pool check used to answer only
   yes/no; the decision ledger needs to know WHY a subtask stayed out of
   U, so the primitive now produces the reason — which parent was
   unmapped, or which side of the energy bound (bare execution vs the
   worst-case child-communication surcharge) overflowed the battery — and
   the bare-bool API derives from it. *)
type infeasibility =
  | Parent_unmapped of { parent : int }
  | Exec_energy of { version : Version.t; required : float; available : float }
  | Comm_energy of { version : Version.t; exec : float; comm : float; available : float }

(* Energy machine [j] must still hold for (task, version) to be admissible:
   the version's execution energy plus its child-communication bound. *)
let required_energy ?(mode = Conservative) sched ~task ~machine ~version =
  let wl = Schedule.workload sched in
  let exec = Workload.exec_energy wl ~task ~machine ~version in
  let comm = comm_bound ~mode wl ~task ~machine ~version in
  apply_margin ~mode (exec +. comm)

(* Energy admissibility of this specific version, with the failing side
   of the bound on rejection ([Exec_energy] or [Comm_energy]). *)
let version_verdict ?(mode = Conservative) sched ~task ~machine ~version =
  let wl = Schedule.workload sched in
  let exec = Workload.exec_energy wl ~task ~machine ~version in
  let comm = comm_bound ~mode wl ~task ~machine ~version in
  let available = Schedule.energy_remaining sched machine in
  match mode with
  | Conservative | Optimistic ->
      (* the historical branch, float for float *)
      if available >= exec +. comm then Ok ()
      else if available < exec then
        Error (Exec_energy { version; required = exec; available })
      else Error (Comm_energy { version; exec; comm; available })
  | Chance _ ->
      (* the margin inflates both report terms proportionally, so the
         ledger's exec/comm split still sums to the tested bound *)
      let required = apply_margin ~mode (exec +. comm) in
      if available >= required then Ok ()
      else
        let exec_infl = apply_margin ~mode exec in
        if available < exec_infl then
          Error (Exec_energy { version; required = exec_infl; available })
        else
          Error
            (Comm_energy
               { version; exec = exec_infl; comm = required -. exec_infl; available })

let version_feasible ?mode sched ~task ~machine ~version =
  match version_verdict ?mode sched ~task ~machine ~version with
  | Ok () -> true
  | Error _ -> false

(* SLRH admissibility: parents mapped, and at least the secondary version
   must fit (the primary-vs-secondary decision is made later, by the
   objective). [verdict] spells out the failure; [feasible] keeps the
   historical bool for the pool filter, whose input is already ready. *)
let verdict ?mode sched ~task ~machine =
  let dag = Workload.dag (Schedule.workload sched) in
  let n_parents = Agrid_dag.Dag.in_degree dag task in
  let k = ref 0 in
  while !k < n_parents && Schedule.is_mapped sched (Agrid_dag.Dag.parent dag task !k) do
    incr k
  done;
  if !k < n_parents then
    Error (Parent_unmapped { parent = Agrid_dag.Dag.parent dag task !k })
  else version_verdict ?mode sched ~task ~machine ~version:Version.Secondary

let feasible ?mode sched ~task ~machine =
  version_feasible ?mode sched ~task ~machine ~version:Version.Secondary

(* The pool U for [machine]: ready (parents mapped), unmapped, and
   energy-admissible tasks. Telemetry (admission counters under the
   "feasibility/filter" span) is guarded on [Sink.enabled] so the no-op
   path never pays the list-length walks. *)
let candidate_pool ?mode ?(obs = Agrid_obs.Sink.noop) sched ~machine =
  Agrid_obs.Sink.span obs "feasibility/filter" (fun () ->
      let ready = Schedule.ready_unmapped sched in
      let pool = List.filter (fun task -> feasible ?mode sched ~task ~machine) ready in
      if Agrid_obs.Sink.enabled obs then begin
        Agrid_obs.Sink.add obs "feasibility/checked" (List.length ready);
        Agrid_obs.Sink.add obs "feasibility/admitted" (List.length pool)
      end;
      pool)

(* Memoised admission bounds for the SoA pool path. The energy a
   (task, machine) pair must clear — secondary execution plus the
   worst-case child-communication surcharge — is a pure function of the
   workload and the mode: it reads nothing from the schedule. So the bound
   can be priced once per pair and replayed on every later timestep; the
   admission test compares the SAME float the rescan path compares
   ([version_verdict] also forms [exec +. comm] before testing), keeping
   accept/reject decisions bit-identical. Entries are priced lazily: most
   (task, machine) pairs never become ready for a given machine. *)
module Memo = struct
  type nonrec t = {
    mode : mode;
    workload : Workload.t;
    n_machines : int;
    required : float array;  (* (task * n_machines + machine) -> bound; nan = unpriced *)
    terms : float array;  (* pricing scratch: 0 exec, 1 comm *)
  }

  let create ?(mode = Conservative) workload =
    {
      mode;
      workload;
      n_machines = Workload.n_machines workload;
      required =
        Array.make (Workload.n_tasks workload * Workload.n_machines workload) Float.nan;
      terms = [| 0.; 0. |];
    }

  (* Price the secondary version's admission bound [exec +. comm] into
     its slot. Real energies are finite, so nan is a safe "unpriced"
     sentinel. [exec] is [Workload.exec_energy] and [comm] the
     [Workload.worst_case_child_comm_energy] fold — children in edge
     order, summed from [0.] — both priced through the run's rate table
     ([tb], read once per run, minimum bandwidth included), so no float
     is boxed and the sum is the same float. Returns unit so the hot
     loop re-reads the bound from the array. *)
  let price t tb ~task ~machine ~slot =
    let wl = t.workload in
    let terms = t.terms in
    Agrid_platform.Comm.exec_energy_into tb ~machine
      ~cycles:(Workload.exec_cycles wl ~task ~machine ~version:Version.Secondary)
      terms 0;
    terms.(1) <- 0.;
    (match t.mode with
    | Optimistic -> ()
    | Conservative | Chance _ ->
        let stage = Agrid_platform.Comm.staging tb in
        let dag = Workload.dag wl in
        for k = 0 to Agrid_dag.Dag.out_degree dag task - 1 do
          let edge = Agrid_dag.Dag.child_edge dag task k in
          Workload.edge_bits_into wl ~edge ~parent_version:Version.Secondary stage 0;
          Agrid_platform.Comm.transfer_energy_into tb ~src:machine
            ~cycles:(Agrid_platform.Comm.worst_case_cycles_at tb stage 0)
            stage 0;
          terms.(1) <- terms.(1) +. stage.(0)
        done);
    (* same expression [version_verdict] tests under every mode, so
       memoised and rescan admissions stay bit-identical *)
    t.required.(slot) <- apply_margin ~mode:t.mode (terms.(0) +. terms.(1))
end

type filter_counts = { mutable admitted : int; mutable checked : int }

(* [filter_into]'s loop: a walk over the frontier array, the memoised
   bound read in place. A top-level function with int results only, so
   the noop-sink path builds no closure and boxes nothing per task. *)
let filter_pass memo sched ~machine ~eligible ~dst counts =
  let frontier = Schedule.ready_tasks sched in
  let n_ready = Schedule.n_ready sched in
  if Array.length dst < n_ready then
    invalid_arg "Feasibility.filter_into: destination shorter than the frontier";
  let available = Schedule.energy_remaining sched machine in
  let required = memo.Memo.required in
  let stride = memo.Memo.n_machines in
  let tb = Schedule.rates sched in
  let n = ref 0 in
  let admitted = ref 0 in
  for i = 0 to n_ready - 1 do
    let task = frontier.(i) in
    let slot = (task * stride) + machine in
    if Float.is_nan required.(slot) then Memo.price memo tb ~task ~machine ~slot;
    if available >= required.(slot) then begin
      incr admitted;
      if eligible task then begin
        dst.(!n) <- task;
        incr n
      end
    end
  done;
  counts.admitted <- !admitted;
  counts.checked <- n_ready;
  !n

(* Batch admission for the flat (SoA) pool path: filter the ready set
   for [machine] straight into the caller-owned buffer [dst], which must
   hold the whole frontier ({!Schedule.n_ready}). Returns the pool size
   and leaves in [counts] the energy-admissible tasks BEFORE the
   [eligible] filter and the frontier length — the values
   [candidate_pool]'s counters report and the pool-reuse path replays.
   [eligible] is called once per admitted task, in ready-list order. Span and
   counter telemetry shape is identical to [candidate_pool]; the span's
   closure is only built when the sink is enabled.

   The admission test compares the same memoised float against the same
   remaining-energy read the boxed path compares (hoisting the read is
   sound: scoring never mutates the schedule, so every per-task read
   returns the identical float), keeping decisions bit-identical. *)
let filter_into ~obs memo sched ~machine ~eligible ~dst counts =
  if not (Schedule.workload sched == memo.Memo.workload) then
    invalid_arg "Feasibility.filter_into: memo priced for another workload";
  if Agrid_obs.Sink.enabled obs then
    Agrid_obs.Sink.span obs "feasibility/filter" (fun () ->
        let n = filter_pass memo sched ~machine ~eligible ~dst counts in
        Agrid_obs.Sink.add obs "feasibility/checked" counts.checked;
        Agrid_obs.Sink.add obs "feasibility/admitted" counts.admitted;
        n)
  else filter_pass memo sched ~machine ~eligible ~dst counts

(* Every unmapped task the pool turned away for [machine], with its
   verdict — the decision ledger's per-candidate rejection record. This
   walks the whole task set and re-prices energies, so callers only run it
   when a ledger is attached; the pool itself is computed by
   [candidate_pool] exactly as before. *)
let explain_rejections ?mode sched ~machine =
  let wl = Schedule.workload sched in
  let n = Workload.n_tasks wl in
  let rejected = ref [] in
  for task = n - 1 downto 0 do
    if not (Schedule.is_mapped sched task) then
      match verdict ?mode sched ~task ~machine with
      | Ok () -> ()
      | Error why -> rejected := (task, why) :: !rejected
  done;
  !rejected

(* --- Tenant quotas (DESIGN.md section 14) ---------------------------------

   Admission control for multi-application traffic: a whole application is
   priced before it is scheduled, against the same conservative per-task
   bound the pool filter uses, so an admitted application can never burn
   more energy than the reservation charged to its tenant. *)

type quota = { q_energy : float option; q_machines : int option }

let quota_to_string q =
  let e = match q.q_energy with None -> "inf" | Some e -> Fmt.str "%g" e in
  let m = match q.q_machines with None -> "all" | Some m -> string_of_int m in
  Fmt.str "energy=%s machines=%s" e m

let validate_quota q =
  match (q.q_energy, q.q_machines) with
  | Some e, _ when (not (Float.is_finite e)) || e <= 0. ->
      Error (Fmt.str "energy quota must be finite and positive, got %g" e)
  | _, Some m when m <= 0 ->
      Error (Fmt.str "machine quota must be positive, got %d" m)
  | _ -> Ok ()

type quota_breach =
  | Energy_quota of { needed : float; budget : float; used : float }
  | Machine_quota of { allowed : int; required : int }

let quota_breach_to_string = function
  | Energy_quota _ -> "energy_quota"
  | Machine_quota _ -> "machine_quota"

let quota_machines q ~n_machines =
  match q.q_machines with None -> n_machines | Some m -> min m n_machines

(* Worst admissible price of one task over the allowed machines and both
   versions. Any placement the scheduler can commit for the task costs
   exec(t, m, v) plus actual transfer energy; the latter is bounded by the
   worst-case child-communication bound priced here (conservative mode),
   so the per-task max dominates whatever the scheduler chooses. *)
let task_reservation ~mode wl ~machines ~task =
  let worst = ref 0. in
  for machine = 0 to machines - 1 do
    List.iter
      (fun version ->
        let exec = Workload.exec_energy wl ~task ~machine ~version in
        let comm = comm_bound ~mode wl ~task ~machine ~version in
        let price = apply_margin ~mode (exec +. comm) in
        if price > !worst then worst := price)
      Version.all
  done;
  !worst

let reservation ?(mode = Conservative) ?machines wl =
  let n_machines = Workload.n_machines wl in
  let machines =
    match machines with
    | None -> n_machines
    | Some m ->
        if m < 1 || m > n_machines then
          invalid_arg "Feasibility.reservation: machine count out of range";
        m
  in
  let total = ref 0. in
  for task = 0 to Workload.n_tasks wl - 1 do
    total := !total +. task_reservation ~mode wl ~machines ~task
  done;
  !total

let admit_quota ?(mode = Conservative) q ~used wl =
  let n_machines = Workload.n_machines wl in
  let allowed = quota_machines q ~n_machines in
  if allowed < 1 then Error (Machine_quota { allowed; required = 1 })
  else
    let needed = reservation ~mode ~machines:allowed wl in
    match q.q_energy with
    | None -> Ok needed
    | Some budget ->
        if used +. needed > budget then Error (Energy_quota { needed; budget; used })
        else Ok needed
