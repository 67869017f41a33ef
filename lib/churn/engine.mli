(** The churn engine: a single event-driven loop that alternates scheduler
    phases with scripted grid transitions ({!Event}). It is the one
    dynamic-grid path: a permanent machine loss is the trace [\[Leave\]],
    an outage [\[Leave; Rejoin\]], and every caller reads this module's
    {!type-outcome}.

    The engine is generic over the per-phase scheduler: a {!type-runner}
    drives the clock over the shared schedule between two events —
    [Agrid_core.Dynamic.slrh_runner] injects the paper's SLRH
    receding-horizon loop, keeping this library independent of any one
    heuristic.

    The engine never renumbers the grid: machines keep their original
    indices and absent ones are masked out of the scheduler's sweep, so a
    trace with any number of leaves, rejoins, shocks and link degrades
    composes.

    Loss semantics at a [Leave] (the conservative model the paper's
    "recovery may prove too costly" note motivates): a placement survives
    iff it finished strictly before the event, sits on a machine still
    present, and all of its ancestors survive; everything else is
    discarded, its partially-burned energy charged as sunk cost to the
    machines that stayed (the departing machine's own burn becomes a debit
    billed if it ever rejoins). Whether and when discarded subtasks become
    remappable again is the {!Retry} policy's call. *)

open Agrid_sched

type 'a runner =
  start_clock:int ->
  until:int option ->
  mask:bool array ->
  eligible:(int -> bool) ->
  Schedule.t ->
  'a * int
(** Drive one scheduler phase over the shared schedule from [start_clock]
    until [until] (inclusive; [None] = the workload's tau) or completion,
    skipping machines with [mask.(j) = false] and candidates rejected by
    [eligible]. Returns the phase's own outcome plus its final clock. *)

type 'a phase = {
  ph_from : int;  (** first clock value of the phase *)
  ph_until : int option;  (** inclusive bound; [None] = the workload's tau *)
  ph_up : bool array;  (** availability during the phase *)
  ph_outcome : 'a;
      (** the runner's outcome; a runner exposing the schedule exposes the
          engine schedule as of the end of the phase (frozen if a later
          event rebuilt, live otherwise) *)
}

type applied = {
  ev : Event.t;
  ev_survivors : int;  (** placements carried across (Leave events) *)
  ev_discarded : int;  (** placements discarded (Leave events) *)
  ev_deferred : int;  (** discards held for a rejoin under [Defer_to_rejoin] *)
  ev_failed : int;  (** subtasks abandoned here (retry budget exhausted) *)
  ev_sunk : float;  (** energy this event charged (sunk work, shock, debit) *)
}

type 'a outcome = {
  schedule : Schedule.t;  (** final schedule, original grid and indices *)
  workload : Agrid_workload.Workload.t;  (** final workload (after degrades) *)
  completed : bool;
  final_clock : int;
  up : bool array;  (** final availability *)
  phases : 'a phase list;  (** chronological *)
  applied : applied list;  (** chronological *)
  discards : int array;  (** per-subtask discard counts *)
  n_discarded : int;  (** discarded placements, with multiplicity *)
  n_failed : int;  (** subtasks permanently abandoned *)
  n_held : int;  (** subtasks still deferred when the run ended *)
  sunk_energy : float;  (** every non-work charge: sunk work + shocks + debits *)
  shock_energy : float;  (** the battery-shock part of [sunk_energy] *)
  ledger_energy_ok : bool;
      (** engine ledger (work + sunk) within every battery *)
}

val run :
  ?obs:Agrid_obs.Sink.t ->
  policy:Retry.policy ->
  runner:'a runner ->
  Agrid_workload.Workload.t ->
  Event.t list ->
  'a outcome
(** Run the full loop over the scripted trace (sorted internally; see
    {!Event.sort} for same-instant ordering). With an empty trace this is
    exactly one uninterrupted runner phase.

    [?obs] (default: the inert no-op sink) times scheduler phases
    (["churn/phase"]) and event application (["churn/event"]) and counts
    events by kind plus discard/defer/fail totals; the run's sunk and
    shock energy land as gauges. Telemetry never alters the outcome.
    @raise Invalid_argument on an inapplicable trace ({!Event.validate}). *)

val audit : 'a outcome -> string list
(** Structural violations of the final schedule: placements or transfers on
    absent machines, execution/channel overlap, precedence (child after
    parent and after its transfer), battery overdraft. Unlike
    [Validate.check] it trusts recorded transfer durations, which is
    required once a [Bandwidth_degrade] changed the link model mid-run, and
    it sees the sunk-energy ledger. *)

val pp_outcome : Format.formatter -> 'a outcome -> unit
val pp_applied : Format.formatter -> applied -> unit
