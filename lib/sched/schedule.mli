(** Mutable schedule state shared by every heuristic: placements, execution
    timelines, one-in/one-out communication channels, energy ledger and
    running T100/TEC/AET counters.

    Mapping is two-phase: {!plan} is side-effect free (SLRH plans many
    candidates per timestep), {!commit} applies a plan. *)

open Agrid_workload

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

type t

val create : Workload.t -> t
val workload : t -> Workload.t

val rates : t -> Agrid_platform.Comm.table
(** The grid's rate table, read once by {!create}, for pricing transfers
    and executions with no boxed float. Owned by this schedule's run. *)

val placement : t -> int -> placement option
val placements : t -> placement array
(** All committed placements (task order). *)

val transfers : t -> transfer array
(** Commit order. *)

val is_mapped : t -> int -> bool
val n_mapped : t -> int
val all_mapped : t -> bool

val n_primary : t -> int
(** T100 so far. *)

val aet : t -> int
(** Application execution time so far: latest execution finish (cycles). *)

val tec : t -> float
(** Total energy consumed so far (execution + communication). *)

val energy_used : t -> int -> float
val energy_remaining : t -> int -> float
(** [B(j)] minus consumption; may be negative (constraints are soft during
    a run; the validator flags it). *)

val exec_timeline : t -> int -> Timeline.t
val ch_out_timeline : t -> int -> Timeline.t
val ch_in_timeline : t -> int -> Timeline.t

val machine_free_at : t -> machine:int -> time:int -> bool

val machine_free_from : t -> machine:int -> time:int -> int
(** The earliest cycle [>= time] at which [machine] is not executing: [time]
    when {!machine_free_at} holds there, else the end of the current busy
    run (back-to-back intervals chain). Allocates nothing.
    @raise Invalid_argument on a negative [time]. *)

val ready_unmapped : t -> int list
(** Unmapped tasks whose parents are all mapped — the candidate-pool
    universe — most recently readied first. A fresh list copied from the
    frontier array ({!ready_tasks}); reading it changes nothing. The
    frontier is maintained at {!commit} and {!replay_placement}
    (O(frontier), not O(|T|)). *)

val ready_tasks : t -> int array
(** The frontier itself, allocation-free: slots [0 .. n_ready t - 1]
    hold {!ready_unmapped}'s sequence. The array is the schedule's own
    and is rewritten by the next {!commit} or {!replay_placement}; read
    it, never write it. *)

val n_ready : t -> int
(** Length of the frontier ({!ready_tasks}'s live prefix). *)

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
  pl_transfers : planned_transfer list;
  pl_exec_energy : float;
  pl_comm_energy : float;
}

exception Unmapped_parent of { task : int; parent : int }

val plan_into :
  t -> task:int -> version:Version.t -> machine:int -> not_before:int -> int
(** Plan (task, version) on [machine] with no action before [not_before]
    into the schedule's plan buffer and return the planned start:
    transfers per cross-machine parent edge in parent order, then the
    execution in the earliest adequate gap. The buffer is owned by the
    schedule and sized once by the DAG's largest in-degree; later
    transfers are fitted clear of earlier ones, no timeline is copied or
    mutated, and nothing is allocated, so the cost does not grow with
    channel length. The next [plan_into], {!plan} or {!commit} overwrites
    the buffer; a schedule must not be planned from two domains at once.
    @raise Unmapped_parent if a parent is unmapped.
    @raise Invalid_argument if [task] is already mapped. *)

val commit_planned : t -> unit
(** Apply the buffered plan. It must be the latest {!plan_into} and no
    commit may have happened since.
    @raise Invalid_argument if the buffer holds no plan (none was made,
    or it was already committed). *)

val plan :
  t -> task:int -> version:Version.t -> machine:int -> not_before:int -> plan
(** {!plan_into}, copied out into a record the caller keeps: the
    schedule's observable state does not change.
    @raise Unmapped_parent if a parent is unmapped.
    @raise Invalid_argument if [task] is already mapped. *)

val totals_after : t -> plan -> int * float * int
(** [(T100, TEC, AET)] as they would stand after committing the plan. *)

val commit : t -> plan -> unit
(** Apply a plan, through the plan buffer and {!commit_planned}. Plans
    must be committed against the schedule state they were computed from
    (at most one per planning round).
    @raise Invalid_argument if the task is already mapped, or if the plan
    carries more transfers than any task has parents. *)

val replay_placement : t -> placement -> unit
(** Re-insert a known-valid placement (dynamic-grid rebuilds); recomputes
    its energy from the workload. *)

val replay_transfer : t -> transfer -> unit

val charge_energy : t -> machine:int -> float -> unit
(** Bill sunk energy (work lost with a failed machine). Counts against the
    battery and TEC but is invisible to {!Validate.check}. *)

val energy_charged : t -> int -> float
(** Total {!charge_energy} billed to a machine so far — the non-work part
    of its ledger. Churn-engine rebuilds carry it across replays. *)

val pp : Format.formatter -> t -> unit
