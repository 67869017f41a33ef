(* Mutable schedule state shared by every heuristic: placements, per-machine
   execution timelines, per-machine incoming/outgoing communication channels
   (assumption (c): one of each may be busy simultaneously), an energy
   ledger, and the running T100 / TEC / AET counters that feed the
   Lagrangian objective.

   Mapping is two-phase: [plan] computes an assignment (execution slot plus
   all incoming transfers) WITHOUT mutating anything; [commit] applies a
   plan. SLRH plans many candidates per timestep and commits at most one,
   so plans must be side-effect free. A plan never copies a timeline: its
   own provisional transfers live in a per-call overlay sized by the task's
   in-degree, and each transfer is fitted against the real channels plus
   that overlay. Planning thus costs nothing that grows with channel
   length, keeps no scratch state in [t], and is reentrant. *)

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
}

let create workload =
  let m = Workload.n_machines workload in
  let n = Workload.n_tasks workload in
  let dag = Workload.dag workload in
  let pending_parents = Array.init n (Agrid_dag.Dag.in_degree dag) in
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
  let children = Agrid_dag.Dag.child_edges (Workload.dag t.workload) task in
  for k = 0 to Array.length children - 1 do
    let c, _ = children.(k) in
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

let parents_mapped t task =
  Array.for_all
    (fun (p, _) -> t.placements.(p) <> None)
    (Agrid_dag.Dag.parent_edges (Workload.dag t.workload) task)

(* Latest parent finish time — a lower bound on when [task]'s inputs can
   even begin to move. Requires all parents mapped. *)
let latest_parent_finish t task =
  Array.fold_left
    (fun acc (p, _) ->
      match t.placements.(p) with
      | Some pl -> max acc pl.stop
      | None -> invalid_arg "Schedule.latest_parent_finish: unmapped parent")
    0
    (Agrid_dag.Dag.parent_edges (Workload.dag t.workload) task)

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
   starting before [not_before] (the heuristic's current clock): schedule
   one transfer per cross-machine parent edge (in parent order,
   earliest-joint-slot-first), then the execution in the earliest adequate
   gap. Raises [Unmapped_parent] if a parent has no placement yet. *)
let plan t ~task ~version ~machine ~not_before =
  if t.placements.(task) <> None then invalid_arg "Schedule.plan: task already mapped";
  if not_before < 0 then invalid_arg "Schedule.plan: negative not_before";
  let wl = t.workload in
  let grid = Workload.grid wl in
  let parents = Agrid_dag.Dag.parent_edges (Workload.dag wl) task in
  let n_parents = Array.length parents in
  (* The plan's own transfers, not yet inserted anywhere: flat [start;
     stop] pairs. All of them occupy the receiver's in-channel, so fitting
     each new transfer clear of every earlier one also covers those that
     share its sender's out-channel. *)
  let pending = Array.make (2 * n_parents) 0 in
  let n_pending = ref 0 in
  let ready = ref not_before in
  let planned = ref [] in
  let comm_energy = ref 0. in
  for k = 0 to n_parents - 1 do
    let p, edge = parents.(k) in
    match t.placements.(p) with
    | None -> raise (Unmapped_parent { task; parent = p })
    | Some pp ->
        if pp.machine = machine then ready := Int.max !ready pp.stop
        else begin
          let bits = Workload.edge_bits wl ~edge ~parent_version:pp.version in
          let duration = Comm.transfer_cycles grid ~src:pp.machine ~dst:machine ~bits in
          let nb = Int.max pp.stop not_before in
          if duration = 0 then ready := Int.max !ready nb
          else begin
            let start =
              Timeline.first_fit_joint t.ch_out.(pp.machine) t.ch_in.(machine) ~pending
                ~n_pending:!n_pending ~not_before:nb ~duration
            in
            let stop = start + duration in
            pending.(2 * !n_pending) <- start;
            pending.((2 * !n_pending) + 1) <- stop;
            incr n_pending;
            let energy = Comm.transfer_energy grid ~src:pp.machine ~dst:machine ~bits in
            planned :=
              {
                p_edge = edge;
                p_src_task = p;
                p_src = pp.machine;
                p_start = start;
                p_stop = stop;
                p_bits = bits;
                p_energy = energy;
              }
              :: !planned;
            comm_energy := !comm_energy +. energy;
            ready := Int.max !ready stop
          end
        end
  done;
  let duration = Workload.exec_cycles wl ~task ~machine ~version in
  let start = Timeline.first_fit t.exec.(machine) ~not_before:!ready ~duration in
  {
    pl_task = task;
    pl_version = version;
    pl_machine = machine;
    pl_start = start;
    pl_stop = start + duration;
    pl_transfers = List.rev !planned;
    pl_exec_energy = Workload.exec_energy wl ~task ~machine ~version;
    pl_comm_energy = !comm_energy;
  }

(* T100 / TEC / AET as they would stand after committing [plan] — used to
   evaluate the objective of a candidate without committing it. *)
let totals_after t plan =
  let t100 = t.n_primary + if Version.is_primary plan.pl_version then 1 else 0 in
  let tec = t.tec +. plan.pl_exec_energy +. plan.pl_comm_energy in
  let aet = max t.aet plan.pl_stop in
  (t100, tec, aet)

let commit t plan =
  if t.placements.(plan.pl_task) <> None then
    invalid_arg "Schedule.commit: task already mapped";
  (* Insert the execution first: if anything raises Overlap here the
     schedule is untouched; transfer inserts below come from a consistent
     plan so they cannot collide unless the caller interleaved commits with
     a stale plan — in which case Overlap propagates and state may be
     partial, so heuristics must not catch it. *)
  Timeline.insert t.exec.(plan.pl_machine) ~start:plan.pl_start ~stop:plan.pl_stop;
  List.iter
    (fun p ->
      Timeline.insert t.ch_out.(p.p_src) ~start:p.p_start ~stop:p.p_stop;
      Timeline.insert t.ch_in.(plan.pl_machine) ~start:p.p_start ~stop:p.p_stop;
      t.energy_used.(p.p_src) <- t.energy_used.(p.p_src) +. p.p_energy;
      t.transfers <-
        {
          edge = p.p_edge;
          src_task = p.p_src_task;
          dst_task = plan.pl_task;
          src = p.p_src;
          dst = plan.pl_machine;
          start = p.p_start;
          stop = p.p_stop;
          bits = p.p_bits;
          energy = p.p_energy;
        }
        :: t.transfers)
    plan.pl_transfers;
  t.placements.(plan.pl_task) <-
    Some
      {
        task = plan.pl_task;
        version = plan.pl_version;
        machine = plan.pl_machine;
        start = plan.pl_start;
        stop = plan.pl_stop;
      };
  t.energy_used.(plan.pl_machine) <-
    t.energy_used.(plan.pl_machine) +. plan.pl_exec_energy;
  t.n_mapped <- t.n_mapped + 1;
  if Version.is_primary plan.pl_version then t.n_primary <- t.n_primary + 1;
  t.aet <- max t.aet plan.pl_stop;
  t.tec <- t.tec +. plan.pl_exec_energy +. plan.pl_comm_energy;
  frontier_mapped t plan.pl_task

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
   dynamic outcomes must also check the ledger (Dynamic.ledger_energy_ok). *)
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
