(** Dynamic grid events: machines leave and rejoin mid-run with on-the-fly
    SLRH rescheduling — the ad hoc transition the paper's three static
    cases bracket (extension; see DESIGN.md section 6).

    The churn engine ({!Agrid_churn.Engine}) owns the transitions; this
    module supplies its SLRH phase runner. A permanent loss is the trace
    [\[Leave\@at\]], an outage [\[Leave\@from_; Rejoin\@until_\]]; traces
    with any number of leaves, rejoins, shocks and link degrades compose
    the same way, and Monte Carlo churn campaigns live in
    [Agrid_exper.Campaign].

    Loss semantics: work survives iff it finished before the loss on a
    surviving machine and all its ancestors survive; everything else is
    rescheduled from the loss instant; energy burned by discarded work on
    surviving machines is charged as sunk cost. Check an outcome's
    [ledger_energy_ok] alongside {!Agrid_sched.Validate.check}, which
    cannot see sunk energy. *)

val slrh_runner : Slrh.params -> Slrh.outcome Agrid_churn.Engine.runner
(** The SLRH receding-horizon loop packaged as a churn-engine phase
    runner ({!Slrh.continue_run} with the engine's mask and eligibility
    filter). *)

val run_churn :
  ?policy:Agrid_churn.Retry.policy ->
  Slrh.params ->
  Agrid_workload.Workload.t ->
  Agrid_churn.Event.t list ->
  Slrh.outcome Agrid_churn.Engine.outcome
(** Run the churn engine over an arbitrary event trace with SLRH phases.
    [policy] defaults to {!Agrid_churn.Retry.default} (immediate remap,
    unbounded retries). With an empty trace this is a single uninterrupted
    SLRH run.
    @raise Invalid_argument on an inapplicable trace
    ({!Agrid_churn.Event.validate}). *)
