(** The global Lagrangian objective of paper Section IV:
    [ObjFn = alpha*T100/|T| - beta*TEC/TSE + gamma*AET/tau], weights
    nonnegative summing to 1. The positive AET sign is the paper's choice:
    it rewards using the time budget, which favours primary versions. *)

open Agrid_workload
open Agrid_sched

type aet_sign =
  | Reward  (** the paper's published choice: +gamma AET/tau *)
  | Penalise  (** the rejected alternative (ablation): -gamma AET/tau *)

type weights = private {
  alpha : float;
  beta : float;
  gamma : float;
  aet_sign : aet_sign;
}

val make_weights : alpha:float -> beta:float -> weights
(** [gamma] is [1 - alpha - beta]; AET sign defaults to the paper's
    [Reward]. @raise Invalid_argument if negative or exceeding 1. *)

val weights_exact : alpha:float -> beta:float -> gamma:float -> weights
(** Explicit gamma; AET sign defaults to [Reward]. *)

val with_aet_sign : aet_sign -> weights -> weights
(** Flip between the paper's [Reward] and the ablation's [Penalise]. *)

val pp_weights : Format.formatter -> weights -> unit

type parts = {
  t100_term : float;  (** alpha * T100/|T| *)
  energy_term : float;  (** beta * TEC/TSE — subtracted in [total] *)
  aet_term : float;  (** gamma * AET/tau, sign already per [aet_sign] *)
  total : float;  (** [t100_term -. energy_term +. aet_term] *)
}
(** The objective split into its weighted terms, for the decision
    ledger's commit records. [value] and [estimate] are the totals of
    these parts — same float operations in the same order, so the
    decomposition costs nothing and changes nothing. *)

val value :
  weights ->
  t100:int ->
  n_tasks:int ->
  tec:float ->
  tse:float ->
  aet:int ->
  tau:int ->
  float

val of_schedule : weights -> Schedule.t -> float

val after_plan : weights -> Schedule.t -> Schedule.plan -> float
(** Exact objective after committing the plan (Max-Max's selection rule). *)

val estimate_parts :
  weights -> Schedule.t -> task:int -> version:Version.t -> machine:int -> now:int -> parts
(** {!estimate} with the term decomposition kept, for ledger commits. *)

val estimate :
  weights -> Schedule.t -> task:int -> version:Version.t -> machine:int -> now:int -> float
(** Cheap candidate score used by SLRH to order the pool before exact
    placement (DESIGN.md section 5). @raise Invalid_argument on unmapped
    parents. *)

val best_version :
  ?obs:Agrid_obs.Sink.t ->
  weights ->
  Schedule.t ->
  task:int ->
  machine:int ->
  now:int ->
  Version.t * float
(** Evaluate both versions, keep the maximiser (ties favour primary).
    [?obs] (default: inert) counts ["objective/version_evals"]. *)

val score_into :
  weights ->
  Schedule.t ->
  machine:int ->
  now:int ->
  n:int ->
  tasks:int array ->
  bound_ready:int array ->
  bound_comm:float array ->
  bound_known:Bytes.t ->
  versions:Version.t array ->
  scores:float array ->
  unit
(** Batch-score the pool [tasks.(0 .. n-1)] for [machine] in one pass,
    writing the best version and score per slot into [versions] /
    [scores]. Parent bounds — the latest parent finish (plus transfer
    latency across machines) and the incoming communication energy, fixed
    once the task is poolable because placements are immutable within a
    run — are priced lazily into the flat store (stride [n_machines],
    index [task * n_machines + machine]; a slot is trusted once its
    [bound_known] byte is set). Per candidate this equals {!best_version}
    bit for bit (pinned by the QCheck batch-equals-fold property).
    Schedule-wide inputs are hoisted out of the loop, both versions are
    evaluated inline off {!Workload.cycles} with no cross-module call per
    candidate, and with warm bounds the pass performs no heap allocation
    (pinned at exactly 0 bytes by the allocation suite). *)

val parent_bound_into :
  Schedule.t ->
  task:int ->
  machine:int ->
  slot:int ->
  int array ->
  float array ->
  unit
(** [parent_bound_into sched ~task ~machine ~slot bound_ready bound_comm]
    prices one candidate's parent bounds into the flat store
    {!score_into} fills: [bound_ready.(slot)] gets the latest stop over
    same-machine parents and stop-plus-transfer-cycles over cross-machine
    ones ([min_int] for a root), [bound_comm.(slot)] the incoming
    communication energy. No {!Schedule.plan} of [task] on [machine]
    starts before [bound_ready.(slot)], at any [not_before], which is what
    lets the SLRH walk skip plans the horizon has already ruled out
    (pinned by a QCheck property).
    @raise Invalid_argument on an unmapped parent. *)

val score_bounds : float array
(** Histogram bucket bounds spanning the objective's analytic range
    [[-1, 1]], for score-distribution telemetry
    ({!Agrid_obs.Hist.make}-compatible). *)
