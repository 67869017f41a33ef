(** One scheduling job: a scenario reference plus SLRH parameters, an
    optional churn timeline and an optional wall-clock deadline — the unit
    of work the scenario service ({!Server}) queues and executes.

    {!run} is deliberately a plain function so the soak harness can replay
    any served job one-shot, single-threaded, and demand a bit-identical
    {!type-result} — the same differential discipline that pins rescan
    against soa mode. *)

type spec = {
  tag : string option;  (** opaque client correlation token, echoed back *)
  trace_id : string option;
      (** distributed-tracing correlation id ({!Agrid_obs.Trace.id_for}),
          stamped by a relaying router; [None] = untraced *)
  tenant : string option;
      (** owning tenant id, checked against the server's per-tenant
          admission caps; [None] = untenanted (never capped) *)
  scenario : Agrid_workload.Serialize.scenario_ref;
  alpha : float;
  beta : float;
  variant : Agrid_core.Slrh.variant;
  delta_t : int;
  horizon : int;
  mode : Agrid_core.Slrh.mode;
  adapt : Agrid_core.Adapt.spec option;
      (** online dual ascent seeded from (alpha, beta), with the spec's
          implied feasibility mode; [None] = constant weights *)
  events : Agrid_churn.Event.t list;  (** churn timeline; [] = static run *)
  deadline_ms : float option;
      (** wall-clock budget for realize plus the scheduler loop (queue
          wait is not charged); enforced cooperatively (one cancellation
          check per timestep). [Some ms] with [ms <= 0]
          always misses — the soak harness's "impossible deadline". *)
}

val default : Agrid_workload.Serialize.scenario_ref -> spec
(** The CLI's defaults: alpha 0.4, beta 0.3, SLRH-1, delta_t 10, horizon
    100, soa mode, no churn, no deadline. *)

type status =
  | Ok_done  (** the clock loop ran to its natural end (see [completed]) *)
  | Deadline_missed  (** the cooperative deadline cancelled the loop *)
  | Errored of string  (** the job could not run (bad scenario/params) *)

val status_to_string : status -> string
(** ["ok"], ["deadline_missed"], ["errored"]. *)

type result = {
  status : status;
  completed : bool;  (** every subtask mapped before the clock passed tau *)
  t100 : int;
  mapped : int;
  aet : int;
  tec : float;  (** total energy consumed *)
  energy_remaining : float array;  (** per-machine battery ledger at the end *)
  final_clock : int;
  n_discarded : int;  (** churn jobs: placements discarded by events *)
  sunk_energy : float;  (** churn jobs: non-work energy charges *)
  wall_seconds : float;
}

val errored : string -> result
(** The all-zero result carrying [Errored msg]. *)

type prepared = {
  spec : spec;
  workload : (Agrid_workload.Workload.t, string) Stdlib.result;
      (** the realized scenario, or the [errored] diagnostic of a
          scenario that could not be realized *)
  realize_ns : int64;
      (** monotonic nanoseconds the realize took; {!execute} charges them
          to the deadline *)
}
(** A job whose scenario is realized, ready for {!execute}. The service
    prepares on the domain that reads the request and executes on a
    worker domain, so its queue holds prepared jobs. *)

val prepare : spec -> prepared
(** Stage one: realize the scenario. A malformed scenario (parse error,
    DAG cycle, [Invalid_argument], [Failure]) is kept as
    [workload = Error msg]; any other exception propagates. *)

val execute : ?obs:Agrid_obs.Sink.t -> prepared -> result
(** Stage two: run the SLRH loop (through the churn engine when
    [events <> []]) and summarize the schedule. A prepared error comes
    back as [Errored], as do invalid parameters; any other exception
    propagates. [?obs] is a per-job sink (the service merges it into the
    pool sink afterwards); the default no-op sink is inert.

    The deadline covers realize and the scheduler loop, never the time
    between the two stages: the clock starts [realize_ns] before
    [execute] is called, and [wall_seconds] is measured from there. A
    [deadline_ms <= 0] fires at the first timestep without reading the
    clock. *)

val run : ?obs:Agrid_obs.Sink.t -> spec -> result
(** [execute ?obs (prepare spec)]: realize, run and summarize in one
    call. Never raises for a malformed scenario or invalid parameters;
    those come back as [Errored].

    Deterministic: for a fixed spec without a deadline (or whose deadline
    did not fire), every field except [wall_seconds] is a pure function of
    the spec — pinned by the soak harness's served-vs-one-shot
    comparison, and split or not: [execute (prepare s)] equals [run s]. *)
