(** The Simplified Lagrangian Receding Horizon resource manager (paper
    Sections IV-V): clock-driven candidate-pool mapping with a receding
    horizon, in three variants.

    - [V1] (SLRH-1): at most one assignment per machine per timestep.
    - [V2] (SLRH-2): drains one stale pool per machine per timestep without
      re-scoring or re-checking energy — faithful to the paper, and the
      reason SLRH-2 rarely yields feasible complete mappings.
    - [V3] (SLRH-3): rebuilds and re-scores the pool after every
      assignment. *)

open Agrid_sched

type variant = V1 | V2 | V3

val variant_to_string : variant -> string

type machine_order =
  | Numerical  (** the paper's "simple numerical order" *)
  | Fast_first  (** ablation: fast-class machines first *)
  | Most_energy_first  (** ablation: by remaining battery, per step *)

val machine_order_to_string : machine_order -> string

type mode = [ `Rescan | `Soa ]
(** How each timestep obtains and walks its candidate pools.

    [`Rescan] rebuilds and re-prices every free machine's pool from
    scratch into a boxed scored list and walks that list — the
    paper-literal loop, kept as the differential oracle and sharing no
    walk with [`Soa].

    [`Soa] (the default) reuses work whose inputs provably did not
    change: energy admission bounds are priced once per (task, machine)
    ({!Feasibility.Memo}), parent-derived score inputs once a task is
    poolable, and a machine's whole pool is reused while no commit has
    intervened since it was built (commits are the only intra-run
    mutation of the ready set, the mapped set and the batteries). Pools
    live on a flat preallocated structure-of-arrays arena
    ({!Pool.Flat}): batch admission ({!Feasibility.filter_into}) and
    batch scoring ({!Objective.score_into}) write into caller-owned
    buffers and the walk commits straight off the arena, so steady-state
    timesteps perform zero heap allocation (pinned by the
    allocation-budget suite).

    [`Soa] also skips work whose result is already known. It does not
    plan a candidate whose parent-ready bound lies past
    [now + horizon] (the plan could only start later still), and it
    jumps the clock over timesteps that provably cannot plan or commit
    anything (DESIGN.md section 13). The telemetry sink never changes
    either decision.

    Only [`Rescan] records a decision ledger: a run whose [obs] sink
    carries one takes the [`Rescan] walk whatever [mode] says.

    Both modes produce bit-identical schedules, [clock_steps],
    [assignments] and final clocks — pinned by the differential suite.
    [`Soa]'s work counts (pools built, candidates scored, plans
    attempted, horizon misses and their spans and histograms) are never
    larger than [`Rescan]'s. [`Soa] alone emits the maintenance counters
    ["slrh/pool_reused"] / ["slrh/pool_rebuilt"] /
    ["slrh/plans_bounded"] / ["slrh/steps_jumped"] and arena gauges
    ["slrh/pool_capacity"] / ["slrh/pool_regrown"]. Whole-pool reuse
    assumes [eligible] is stable for the duration of the run, as both
    the plain loop and the churn engine guarantee. *)

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** ["rescan"] / ["soa"]; [None] otherwise. *)

type params = {
  variant : variant;
  delta_t : int;  (** timestep in clock cycles (paper: 10) *)
  horizon : int;  (** receding horizon H in clock cycles (paper: 100) *)
  weights : Objective.weights;
  feas_mode : Feasibility.mode;
  mode : mode;
      (** pool maintenance strategy; see {!mode}. Ignored when [obs]
          carries a decision ledger: that run takes [`Rescan]. *)
  machine_order : machine_order;
  obs : Agrid_obs.Sink.t;
      (** telemetry sink — spans over the hot paths ([slrh/run],
          [slrh/pool_build], [slrh/score], [slrh/plan],
          [feasibility/filter]), counters mirroring {!stats}, score and
          pool-size histograms, and one {!Agrid_obs.Snapshot.t} per
          swept timestep, carrying its clock (stride-gated by the sink).
          A sink created with [~ledger:true] additionally records the
          decision ledger: typed per-candidate rejections, commit score
          decompositions with the runner-up margin, and per-machine idle
          causes, from which {!Trace.of_ledger} reads the per-decision
          trace; such a run takes the [`Rescan] walk, the only one that
          records decisions. The default no-op sink is inert: scheduler
          output is bit-identical with or without it (ledger on or
          off). *)
  cancel : unit -> bool;
      (** cooperative cancellation, polled once per swept timestep
          before any work for that step: returning [true] ends the run
          where it stands, leaving [completed = false] and the schedule
          as built so far. The scenario service ({!Agrid_serve}) uses this to
          enforce per-job wall-clock deadlines without preemption. The
          default never cancels; the loop is then bit-identical to the
          uncancellable one. *)
  adapt : Adapt.t option;
      (** online Lagrangian dual ascent ({!Adapt}): when set, every score
          reads the controller's current weights instead of [weights],
          and the main loop runs one dual round after any timestep that
          committed an assignment (plus churn-triggered rounds injected
          by {!Dynamic}). [None] (the default) is bit-identical to the
          historical constant-weights run. The controller is mutable —
          build a fresh one per run. *)
}

val default_params : ?variant:variant -> Objective.weights -> params

type stats = {
  clock_steps : int;  (** timesteps the clock passed, jumped ones included *)
  pools_built : int;
  candidates_scored : int;
  plans_attempted : int;
  assignments : int;
}

type outcome = {
  schedule : Schedule.t;
  completed : bool;  (** all subtasks mapped before the clock passed tau *)
  final_clock : int;
  stats : stats;
  wall_seconds : float;  (** heuristic execution time (Figure 6 metric) *)
}

val run : params -> Agrid_workload.Workload.t -> outcome

val continue_run :
  ?until:int ->
  ?start_clock:int ->
  ?mask:bool array ->
  ?eligible:(int -> bool) ->
  params ->
  Schedule.t ->
  outcome
(** Drive the clock loop over an existing schedule from [start_clock] until
    [until] (default: the workload's tau) or completion. Used by the
    churn engine's SLRH phase runner ({!Dynamic.slrh_runner}).

    [mask.(j) = false] removes machine [j] from the per-timestep sweep
    without renumbering the grid (churn: machines currently down);
    [eligible] filters the candidate pool (churn: subtasks deferred to a
    rejoin or out of retry budget). Defaults leave behaviour identical to
    the unmasked loop.
    @raise Invalid_argument when [mask] length differs from the grid. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_outcome : Format.formatter -> outcome -> unit
