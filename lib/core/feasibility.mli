(** Candidate-pool feasibility (paper Section IV): parents mapped, plus
    enough energy for at least the secondary version and its worst-case
    child communication. *)

open Agrid_workload
open Agrid_sched

type mode =
  | Conservative  (** paper: every child on the worst link in the grid *)
  | Optimistic  (** ablation: children assumed co-located (zero comm) *)
  | Chance of { p : float; sigma : float }
      (** chance-constrained: the conservative bound inflated by the
          Gaussian margin [1 + Phi^-1(p) * sigma]
          ({!Agrid_lagrange.Chance.inflation}) so admissions hold with
          service probability ~[p] under relative estimation error
          [sigma]. [p = 0.5] or [sigma = 0] coincides bit-for-bit with
          [Conservative]. Build through {!chance} to validate. *)

val mode_to_string : mode -> string

val chance : p:float -> sigma:float -> mode
(** [Chance { p; sigma }] with the parameters validated.
    @raise Invalid_argument if [p] is outside (0, 1) or [sigma] is
    negative or non-finite. *)

type infeasibility =
  | Parent_unmapped of { parent : int }
      (** not ready: this parent had not been mapped yet *)
  | Exec_energy of { version : Version.t; required : float; available : float }
      (** the version's execution energy alone exceeds the battery *)
  | Comm_energy of { version : Version.t; exec : float; comm : float; available : float }
      (** execution fits, but the worst-case child-communication bound
          overflows the battery *)
(** Why a subtask stayed out of the pool U — the decision ledger's typed
    rejection reasons. The bare-bool checks below derive from these. *)

val required_energy :
  ?mode:mode -> Schedule.t -> task:int -> machine:int -> version:Version.t -> float

val version_feasible :
  ?mode:mode -> Schedule.t -> task:int -> machine:int -> version:Version.t -> bool
(** Does the machine retain enough energy for this specific version? (The
    Max-Max pool assesses versions independently.)
    [= Result.is_ok (version_verdict ...)] *)

val verdict :
  ?mode:mode -> Schedule.t -> task:int -> machine:int -> (unit, infeasibility) result
(** SLRH admissibility with the reason on rejection: first unmapped
    parent, else the secondary version's energy verdict. *)

val feasible : ?mode:mode -> Schedule.t -> task:int -> machine:int -> bool
(** SLRH admissibility: the secondary version fits. *)

val candidate_pool :
  ?mode:mode -> ?obs:Agrid_obs.Sink.t -> Schedule.t -> machine:int -> int list
(** The pool U: ready, unmapped, energy-admissible tasks for a machine.
    [?obs] (default: inert) times the filter under ["feasibility/filter"]
    and counts ["feasibility/checked"] / ["feasibility/admitted"]. *)

(** Memoised admission bounds for the SoA pool path
    ({!Slrh.params.mode} [= `Soa]). The energy bound a (task, machine)
    pair must clear is a pure function of the workload and the mode, so
    it is priced once, on first use by {!filter_into}, and replayed; the
    admission test compares the same float the rescan path compares,
    keeping decisions bit-identical (pinned by the differential suite). *)
module Memo : sig
  type t

  val create : ?mode:mode -> Workload.t -> t
  (** Lazy table over all (task, machine) pairs; nothing is priced until
      first use. [?mode] defaults to [Conservative], as everywhere. *)
end

type filter_counts = { mutable admitted : int; mutable checked : int }
(** The telemetry side of one {!filter_into} pass: energy-admitted tasks
    before the eligibility filter, and the frontier length — the counter
    values {!candidate_pool} reports. Allocated once per owner and
    overwritten by every pass. *)

val filter_into :
  obs:Agrid_obs.Sink.t ->
  Memo.t ->
  Schedule.t ->
  machine:int ->
  eligible:(int -> bool) ->
  dst:int array ->
  filter_counts ->
  int
(** Batch admission for the flat (SoA) pool path: write the ready,
    unmapped, energy-admissible, eligible tasks for [machine] into
    [dst.(0 .. pool-1)] and return the pool size; [counts] receives the
    energy-admitted count (before the eligibility filter) and the
    frontier length. [dst] must hold the whole frontier
    ({!Schedule.n_ready}). [eligible] is called exactly once per
    energy-admitted task, in ready-list order. Same telemetry shape, same admission as
    {!candidate_pool}, bit-identical decisions. With a noop [obs] the pass
    builds no closure and allocates nothing beyond first-use pricing.
    @raise Invalid_argument if the memo was priced for another workload
    or [dst] is shorter than the frontier. *)

val explain_rejections :
  ?mode:mode -> Schedule.t -> machine:int -> (int * infeasibility) list
(** Every unmapped task the pool turned away for [machine], with its
    verdict, in task order. O(unmapped tasks) with energy pricing per
    task — meant for ledger-attached runs, not the hot path. *)

(** {2 Tenant quotas}

    Multi-tenant admission (DESIGN.md section 14): a tenant may cap the
    total energy its applications can reserve and the number of grid
    machines they may touch. Quota admission prices a whole application
    {e before} it is scheduled, against the same conservative bound the
    pool filter uses per task, so an admitted application can never burn
    more than its reservation. *)

type quota = {
  q_energy : float option;
      (** total reserved energy across the tenant's admitted
          applications; [None] = unlimited *)
  q_machines : int option;
      (** the tenant's applications run on machines [0 .. q-1] only;
          [None] = the whole grid *)
}

val quota_to_string : quota -> string

val validate_quota : quota -> (unit, string) result
(** Energy quotas must be finite and positive; machine quotas positive. *)

type quota_breach =
  | Energy_quota of { needed : float; budget : float; used : float }
      (** admitting would push the tenant's reserved energy past its
          budget: [used + needed > budget] *)
  | Machine_quota of { allowed : int; required : int }
      (** the machine-count quota leaves no machine (or fewer than the
          grid can satisfy the application with) *)
(** Why an application was refused admission — total: every quota
    rejection carries exactly one of these. *)

val quota_breach_to_string : quota_breach -> string
(** Short wire token: ["energy_quota"] / ["machine_quota"]. *)

val quota_machines : quota -> n_machines:int -> int
(** Machines the quota admits: [min q n_machines] (or [n_machines] when
    unlimited). *)

val reservation : ?mode:mode -> ?machines:int -> Workload.t -> float
(** Upper bound on the energy one run of this workload can consume when
    confined to machines [0 .. machines-1] (default: the whole grid):
    per task, the worst admissible version/machine price
    (execution energy + the mode's child-communication bound), summed.
    Any schedule's actual TEC on those machines is bounded by it under
    [Conservative] (each placement costs at most its per-task maximum;
    actual transfers cost at most the worst-case bound). *)

val admit_quota :
  ?mode:mode -> quota -> used:float -> Workload.t -> (float, quota_breach) result
(** Typed admission of one application against a tenant quota with
    [used] energy already reserved: check the machine-count quota, price
    {!reservation} on the allowed machines, charge it against
    [q_energy -. used]. [Ok r] admits and reserves [r]. *)
