(* Mutable schedule state shared by every heuristic: placements, per-machine
   execution timelines, per-machine incoming/outgoing communication channels
   (assumption (c): one of each may be busy simultaneously), an energy
   ledger, and the running T100 / TEC / AET counters that feed the
   Lagrangian objective.

   Mapping is two-phase: [plan] computes an assignment (execution slot plus
   all incoming transfers) WITHOUT mutating anything; [commit] applies a
   plan. SLRH plans many candidates per timestep and commits at most one,
   so plans must be side-effect free. A plan never copies a timeline: its
   own provisional transfers live in the schedule's plan buffer, sized once
   by the DAG's largest in-degree, and each transfer is fitted against the
   real channels plus the transfers already in that buffer. Planning thus
   costs nothing that grows with channel length. The buffer is the only
   scratch state in [t]; [plan] copies it out into a [plan] record, so
   planning changes nothing a reader of the schedule can observe. *)

open Agrid_workload
open Agrid_platform

type placement = {
  task : int;
  version : Version.t;
  machine : int;
  start : int;
  stop : int;
}

type transfer = {
  edge : int;
  src_task : int;
  dst_task : int;
  src : int;
  dst : int;
  start : int;
  stop : int;
  bits : float;
  energy : float;
}

type t = {
  workload : Workload.t;
  placements : placement option array;
  exec : Timeline.t array;
  ch_out : Timeline.t array;
  ch_in : Timeline.t array;
  energy_used : float array;
  charged : float array; (* non-work charges (sunk energy) per machine *)
  mutable transfers : transfer list; (* reverse commit order *)
  mutable n_mapped : int;
  mutable n_primary : int;
  mutable aet : int;
  mutable tec : float;
  (* frontier bookkeeping: pending_parents.(i) = unmapped parents of i;
     ready.(0 .. n_ready-1) holds exactly the unmapped tasks whose count
     reached 0, most recently readied first *)
  pending_parents : int array;
  ready : int array;
  mutable n_ready : int;
  rates : Comm.table;  (* the grid's rates, read once for the run *)
  buf : buffer;  (* the latest [plan_into], until it is committed *)
}

(* The run-owned plan buffer: the assignment [plan_into] computed, its
   transfers in flat arrays (parent order), and its two energy sums in a
   float array, so writing a plan allocates nothing. *)
and buffer = {
  mutable b_task : int;  (* -1 once committed, or before any plan *)
  mutable b_version : Version.t;
  mutable b_machine : int;
  mutable b_start : int;
  mutable b_stop : int;
  mutable b_n : int;  (* transfers planned *)
  b_edge : int array;
  b_src_task : int array;
  b_src : int array;
  b_slots : int array;  (* 2k, 2k + 1: transfer k's start and stop *)
  b_bits : float array;
  b_energy : float array;
  b_sums : float array;  (* 0: execution energy, 1: communication energy *)
}

let create workload =
  let m = Workload.n_machines workload in
  let n = Workload.n_tasks workload in
  let dag = Workload.dag workload in
  let pending_parents = Array.init n (Agrid_dag.Dag.in_degree dag) in
  let cap = Array.fold_left Int.max 0 pending_parents in
  let ready = Array.make n 0 in
  let n_ready = ref 0 in
  for i = 0 to n - 1 do
    if pending_parents.(i) = 0 then begin
      ready.(!n_ready) <- i;
      incr n_ready
    end
  done;
  {
    workload;
    placements = Array.make n None;
    exec = Array.init m (fun _ -> Timeline.create ());
    ch_out = Array.init m (fun _ -> Timeline.create ());
    ch_in = Array.init m (fun _ -> Timeline.create ());
    energy_used = Array.make m 0.;
    charged = Array.make m 0.;
    transfers = [];
    n_mapped = 0;
    n_primary = 0;
    aet = 0;
    tec = 0.;
    pending_parents;
    ready;
    n_ready = !n_ready;
    rates = Comm.table (Workload.grid workload);
    buf =
      {
        b_task = -1;
        b_version = Version.Primary;
        b_machine = 0;
        b_start = 0;
        b_stop = 0;
        b_n = 0;
        b_edge = Array.make cap 0;
        b_src_task = Array.make cap 0;
        b_src = Array.make cap 0;
        b_slots = Array.make (2 * cap) 0;
        b_bits = Array.make cap 0.;
        b_energy = Array.make cap 0.;
        b_sums = [| 0.; 0. |];
      };
  }

(* Mark [task] mapped in the frontier: it leaves the ready array (the
   rest keep their order), then each child whose last parent it was joins
   at the front, in child-edge order — so the latest-readied task comes
   first. That order is every SoA pool's fill order (pinned against a
   list reference model by a QCheck property). A task replayed before
   its parents never joins: it is mapped by the time its count reaches 0. *)
let frontier_mapped t task =
  let ready = t.ready in
  let n = t.n_ready in
  let i = ref 0 in
  while !i < n && ready.(!i) <> task do
    incr i
  done;
  if !i < n then begin
    Array.blit ready (!i + 1) ready !i (n - !i - 1);
    t.n_ready <- n - 1
  end;
  let dag = Workload.dag t.workload in
  for k = 0 to Agrid_dag.Dag.out_degree dag task - 1 do
    let c = Agrid_dag.Dag.child dag task k in
    t.pending_parents.(c) <- t.pending_parents.(c) - 1;
    if t.pending_parents.(c) = 0 && t.placements.(c) = None then begin
      Array.blit ready 0 ready 1 t.n_ready;
      ready.(0) <- c;
      t.n_ready <- t.n_ready + 1
    end
  done

let ready_tasks t = t.ready
let n_ready t = t.n_ready

(* Unmapped tasks whose parents are all mapped — the only tasks a candidate
   pool can contain — as a fresh list in frontier order. *)
let ready_unmapped t = List.init t.n_ready (fun i -> t.ready.(i))

let workload t = t.workload
let rates t = t.rates
let placement t task = t.placements.(task)
let is_mapped t task = t.placements.(task) <> None
let n_mapped t = t.n_mapped
let n_primary t = t.n_primary
let all_mapped t = t.n_mapped = Workload.n_tasks t.workload
let aet t = t.aet
let tec t = t.tec
let transfers t = Array.of_list (List.rev t.transfers)
let energy_used t machine = t.energy_used.(machine)

let energy_remaining t machine =
  (Grid.machine (Workload.grid t.workload) machine).Machine.battery
  -. t.energy_used.(machine)

let exec_timeline t machine = t.exec.(machine)
let ch_out_timeline t machine = t.ch_out.(machine)
let ch_in_timeline t machine = t.ch_in.(machine)

let machine_free_at t ~machine ~time = Timeline.is_free_at t.exec.(machine) time

(* The first cycle at or after [time] that no execution interval covers:
   [time] itself on a free machine, else the end of the busy run covering
   it (back-to-back intervals chain). A one-cycle [first_fit] is exactly
   that search. *)
let machine_free_from t ~machine ~time =
  Timeline.first_fit t.exec.(machine) ~not_before:time ~duration:1

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

type planned_transfer = {
  p_edge : int;
  p_src_task : int;
  p_src : int;
  p_start : int;
  p_stop : int;
  p_bits : float;
  p_energy : float;
}

type plan = {
  pl_task : int;
  pl_version : Version.t;
  pl_machine : int;
  pl_start : int;
  pl_stop : int;
  pl_transfers : planned_transfer list; (* parent order *)
  pl_exec_energy : float;
  pl_comm_energy : float; (* total over pl_transfers *)
}

exception Unmapped_parent of { task : int; parent : int }

(* Compute the assignment of (task, version) to [machine] with no action
   starting before [not_before] (the heuristic's current clock) into the
   plan buffer: schedule one transfer per cross-machine parent edge (in
   parent order, earliest-joint-slot-first), then the execution in the
   earliest adequate gap. Returns the planned start. Raises
   [Unmapped_parent] if a parent has no placement yet.

   Every float is read from and written to an array slot — the edge's
   bits through [Workload.edge_bits_into], the duration and energies
   through the run's [Comm.table] — so a plan allocates nothing. The
   transfer's energy is priced from the cycles already computed for its
   duration, which is exactly what [Comm.transfer_energy] recomputes. *)
let plan_into t ~task ~version ~machine ~not_before =
  if t.placements.(task) <> None then invalid_arg "Schedule.plan: task already mapped";
  if not_before < 0 then invalid_arg "Schedule.plan: negative not_before";
  let wl = t.workload in
  let tb = t.rates in
  let b = t.buf in
  let dag = Workload.dag wl in
  (* [b_slots]' first [n] pairs are the transfers placed so far, not yet
     inserted anywhere. All of them occupy the receiver's in-channel, so
     fitting each new transfer clear of every earlier one also covers
     those that share its sender's out-channel. *)
  b.b_task <- -1;
  b.b_n <- 0;
  b.b_sums.(1) <- 0.;
  let ready = ref not_before in
  for k = 0 to Agrid_dag.Dag.in_degree dag task - 1 do
    let edge = Agrid_dag.Dag.parent_edge dag task k in
    let p = Agrid_dag.Dag.src dag edge in
    match t.placements.(p) with
    | None -> raise (Unmapped_parent { task; parent = p })
    | Some pp ->
        if pp.machine = machine then ready := Int.max !ready pp.stop
        else begin
          let j = b.b_n in
          Workload.edge_bits_into wl ~edge ~parent_version:pp.version b.b_bits j;
          let duration =
            Comm.transfer_cycles_at tb ~src:pp.machine ~dst:machine b.b_bits j
          in
          let nb = Int.max pp.stop not_before in
          if duration = 0 then ready := Int.max !ready nb
          else begin
            let start =
              Timeline.first_fit_joint t.ch_out.(pp.machine) t.ch_in.(machine)
                ~pending:b.b_slots ~n_pending:j ~not_before:nb ~duration
            in
            let stop = start + duration in
            b.b_slots.(2 * j) <- start;
            b.b_slots.((2 * j) + 1) <- stop;
            b.b_edge.(j) <- edge;
            b.b_src_task.(j) <- p;
            b.b_src.(j) <- pp.machine;
            Comm.transfer_energy_into tb ~src:pp.machine ~cycles:duration b.b_energy j;
            b.b_sums.(1) <- b.b_sums.(1) +. b.b_energy.(j);
            b.b_n <- j + 1;
            ready := Int.max !ready stop
          end
        end
  done;
  let duration = Workload.exec_cycles wl ~task ~machine ~version in
  let start = Timeline.first_fit t.exec.(machine) ~not_before:!ready ~duration in
  Comm.exec_energy_into tb ~machine ~cycles:duration b.b_sums 0;
  b.b_task <- task;
  b.b_version <- version;
  b.b_machine <- machine;
  b.b_start <- start;
  b.b_stop <- start + duration;
  start

(* [plan_into], copied out of the buffer into a record the caller keeps. *)
let plan t ~task ~version ~machine ~not_before =
  let start = plan_into t ~task ~version ~machine ~not_before in
  let b = t.buf in
  let transfers = ref [] in
  for k = b.b_n - 1 downto 0 do
    transfers :=
      {
        p_edge = b.b_edge.(k);
        p_src_task = b.b_src_task.(k);
        p_src = b.b_src.(k);
        p_start = b.b_slots.(2 * k);
        p_stop = b.b_slots.((2 * k) + 1);
        p_bits = b.b_bits.(k);
        p_energy = b.b_energy.(k);
      }
      :: !transfers
  done;
  {
    pl_task = task;
    pl_version = version;
    pl_machine = machine;
    pl_start = start;
    pl_stop = b.b_stop;
    pl_transfers = !transfers;
    pl_exec_energy = b.b_sums.(0);
    pl_comm_energy = b.b_sums.(1);
  }

(* T100 / TEC / AET as they would stand after committing [plan] — used to
   evaluate the objective of a candidate without committing it. *)
let totals_after t plan =
  let t100 = t.n_primary + if Version.is_primary plan.pl_version then 1 else 0 in
  let tec = t.tec +. plan.pl_exec_energy +. plan.pl_comm_energy in
  let aet = max t.aet plan.pl_stop in
  (t100, tec, aet)

(* Apply the buffered plan. The schedule keeps only what it retains: the
   placement and one [transfer] record per transfer. *)
let commit_planned t =
  let b = t.buf in
  let task = b.b_task in
  if task < 0 then invalid_arg "Schedule.commit_planned: no plan to commit";
  if t.placements.(task) <> None then invalid_arg "Schedule.commit: task already mapped";
  let machine = b.b_machine in
  (* Insert the execution first: if anything raises Overlap here the
     schedule is untouched; transfer inserts below come from a consistent
     plan so they cannot collide unless the caller interleaved commits with
     a stale plan — in which case Overlap propagates and state may be
     partial, so heuristics must not catch it. *)
  Timeline.insert t.exec.(machine) ~start:b.b_start ~stop:b.b_stop;
  for k = 0 to b.b_n - 1 do
    let src = b.b_src.(k) in
    let start = b.b_slots.(2 * k) and stop = b.b_slots.((2 * k) + 1) in
    Timeline.insert t.ch_out.(src) ~start ~stop;
    Timeline.insert t.ch_in.(machine) ~start ~stop;
    t.energy_used.(src) <- t.energy_used.(src) +. b.b_energy.(k);
    t.transfers <-
      {
        edge = b.b_edge.(k);
        src_task = b.b_src_task.(k);
        dst_task = task;
        src;
        dst = machine;
        start;
        stop;
        bits = b.b_bits.(k);
        energy = b.b_energy.(k);
      }
      :: t.transfers
  done;
  t.placements.(task) <-
    Some { task; version = b.b_version; machine; start = b.b_start; stop = b.b_stop };
  t.energy_used.(machine) <- t.energy_used.(machine) +. b.b_sums.(0);
  t.n_mapped <- t.n_mapped + 1;
  if Version.is_primary b.b_version then t.n_primary <- t.n_primary + 1;
  t.aet <- max t.aet b.b_stop;
  t.tec <- t.tec +. b.b_sums.(0) +. b.b_sums.(1);
  b.b_task <- -1;
  frontier_mapped t task

(* A plan record goes back into the buffer and through [commit_planned]:
   one commit path for both. *)
let commit t plan =
  let b = t.buf in
  let n = List.length plan.pl_transfers in
  if n > Array.length b.b_edge then
    invalid_arg "Schedule.commit: more transfers than any task has parents";
  List.iteri
    (fun k p ->
      b.b_edge.(k) <- p.p_edge;
      b.b_src_task.(k) <- p.p_src_task;
      b.b_src.(k) <- p.p_src;
      b.b_slots.(2 * k) <- p.p_start;
      b.b_slots.((2 * k) + 1) <- p.p_stop;
      b.b_bits.(k) <- p.p_bits;
      b.b_energy.(k) <- p.p_energy)
    plan.pl_transfers;
  b.b_n <- n;
  b.b_task <- plan.pl_task;
  b.b_version <- plan.pl_version;
  b.b_machine <- plan.pl_machine;
  b.b_start <- plan.pl_start;
  b.b_stop <- plan.pl_stop;
  b.b_sums.(0) <- plan.pl_exec_energy;
  b.b_sums.(1) <- plan.pl_comm_energy;
  commit_planned t

(* ------------------------------------------------------------------ *)
(* Replay primitives (dynamic-grid extension rebuilds)                 *)

let replay_placement t (pl : placement) =
  if t.placements.(pl.task) <> None then
    invalid_arg "Schedule.replay_placement: task already mapped";
  Timeline.insert t.exec.(pl.machine) ~start:pl.start ~stop:pl.stop;
  t.placements.(pl.task) <- Some pl;
  let energy =
    Workload.exec_energy t.workload ~task:pl.task ~machine:pl.machine
      ~version:pl.version
  in
  t.energy_used.(pl.machine) <- t.energy_used.(pl.machine) +. energy;
  t.n_mapped <- t.n_mapped + 1;
  if Version.is_primary pl.version then t.n_primary <- t.n_primary + 1;
  t.aet <- max t.aet pl.stop;
  t.tec <- t.tec +. energy;
  frontier_mapped t pl.task

(* Bill energy that was consumed but produces no placement — work lost with
   a failed machine (dynamic-grid extension). Counts against the battery
   and TEC; invisible to the validator, which only sees committed work, so
   churn outcomes must also check the ledger (Engine.ledger_energy_ok). *)
let charge_energy t ~machine amount =
  if amount < 0. then invalid_arg "Schedule.charge_energy: negative amount";
  t.energy_used.(machine) <- t.energy_used.(machine) +. amount;
  t.charged.(machine) <- t.charged.(machine) +. amount;
  t.tec <- t.tec +. amount

let energy_charged t machine = t.charged.(machine)

let replay_transfer t (tr : transfer) =
  Timeline.insert t.ch_out.(tr.src) ~start:tr.start ~stop:tr.stop;
  Timeline.insert t.ch_in.(tr.dst) ~start:tr.start ~stop:tr.stop;
  t.energy_used.(tr.src) <- t.energy_used.(tr.src) +. tr.energy;
  t.tec <- t.tec +. tr.energy;
  t.transfers <- tr :: t.transfers

let placements t =
  Array.to_list t.placements |> List.filter_map Fun.id |> Array.of_list

let pp ppf t =
  Fmt.pf ppf "schedule<mapped %d/%d, T100=%d, AET=%d, TEC=%.2f>" t.n_mapped
    (Workload.n_tasks t.workload) t.n_primary t.aet t.tec
