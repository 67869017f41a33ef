(** Online Lagrangian dual ascent inside a single SLRH run (DESIGN.md
    section 11). A controller holds nonnegative multipliers for the
    energy (TEC/TSE) and time-extent (AET/tau) constraints, measures
    pacing subgradients at every commit epoch and after churn events,
    steps them along the decreasing [c / sqrt round] schedule
    ({!Agrid_lagrange.Dual}), and republishes the equivalent normalised
    {!Objective.weights} — the scoring path itself is unchanged, and no
    pool cache needs invalidating on an update. *)

open Agrid_sched

(** Immutable configuration, as carried by the CLI, the serve job codec
    and campaign grids. A fresh mutable controller ({!create}) must be
    built from it per run/replicate. *)
type spec = {
  step_c : float;  (** [c] in the [c / sqrt round] step schedule *)
  init_energy : float option;
      (** initial energy multiplier; [None] derives [beta/alpha] from the
          seed weights *)
  init_aet : float option;
      (** initial AET multiplier; [None] derives [gamma/alpha] *)
  prob : float option;
      (** chance-constrained feasibility service probability; [None]
          keeps {!Feasibility.Conservative} *)
  sigma : float;  (** relative estimation error for the chance margin *)
}

val default_spec : spec
(** [{ step_c = 0.5; init_energy = None; init_aet = None; prob = None;
       sigma = 0.1 }] *)

val validate_spec : spec -> (unit, string) result
(** One-line human-readable reason on rejection (non-finite or
    nonpositive step constant, negative initial multipliers, [prob]
    outside (0, 1), negative sigma). *)

val feas_mode : spec -> Feasibility.mode
(** The feasibility mode the spec implies: {!Feasibility.Conservative}
    when [prob = None], else the validated chance mode. *)

type t
(** Mutable per-run controller state: the dual iterate, the current
    weights and the last update's commit epoch. *)

val create : spec -> Objective.weights -> t
(** Seed the controller from the run's starting weights. Multipliers not
    given explicitly are derived via [lambda_e = beta/alpha],
    [lambda_a = gamma/alpha]; the published weights are immediately the
    normalised image of the (possibly explicit) multipliers.
    @raise Invalid_argument if the spec is invalid or [alpha <= 0]. *)

val weights : t -> Objective.weights
(** The current normalised weights — what {!Slrh} scores with. *)

val rounds : t -> int
(** Dual rounds taken so far. *)

val lambda_energy : t -> float
val lambda_aet : t -> float

val on_timestep : t -> obs:Agrid_obs.Sink.t -> clock:int -> Schedule.t -> unit
(** End-of-timestep hook: runs one dual round iff the timestep advanced
    the mapped count past the last update's epoch. Emits ["lagrange/*"]
    telemetry and a {!Agrid_obs.Ledger.Multiplier} entry when a ledger is
    attached. *)

val on_churn : t -> obs:Agrid_obs.Sink.t -> clock:int -> Schedule.t -> unit
(** After-churn hook: unconditionally re-prices the constraints against
    the post-event grid (trigger ["churn"]). *)

val pp : Format.formatter -> t -> unit
