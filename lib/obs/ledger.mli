(** The decision ledger: an append-only explanation of every SLRH mapping
    decision — which candidates entered the pool and why the rest were
    turned away (typed rejection reasons), the full score decomposition of
    every commitment, why machines sat idle, and the churn transitions in
    between. The scheduler core fills it in through
    {!Sink.ledger}-guarded instrumentation; with the no-op sink no entry
    is ever built and scheduler output is bit-identical (pinned by
    regression tests).

    Serialises as JSONL (schema ["agrid-ledger/2"]): a meta line, then one
    flat JSON object per entry. {!of_jsonl} inverts {!to_jsonl} (floats to
    9 significant digits). {!explain_task} / {!explain_idle} answer the
    "why did subtask N map there?" / "why was machine J idle at step K?"
    queries behind [agrid explain]; {!first_divergence} powers
    [agrid ledger-diff]. *)

type reject =
  | Parent_unmapped of { parent : int }
      (** not ready: this parent had not been mapped *)
  | Exec_energy of { version : string; required : float; available : float }
      (** the version's execution energy alone exceeds the battery *)
  | Comm_energy of { version : string; exec : float; comm : float; available : float }
      (** execution fits, but the worst-case child-communication bound
          overflows the battery *)
  | Ineligible  (** filtered by the churn retry policy (deferred/failed) *)

type fate =
  | Rejected of reject
  | Scored of { version : string; score : float; rank : int }
      (** entered the pool at this rank (0 = best) with its best version *)
  | Horizon_missed of { version : string; score : float; rank : int; planned_start : int }
      (** walked in rank order, but the planned start fell past the horizon *)
  | Outscored of { version : string; score : float; rank : int }
      (** pooled but never walked: a better-scored candidate won the step *)

type idle_cause =
  | Busy  (** executing at this clock — not swept *)
  | Down  (** masked out of the grid by churn *)
  | Pool_empty  (** swept, but no candidate was feasible *)
  | Horizon_miss  (** candidates existed; none could start within the horizon *)

type entry =
  | Candidate of { clock : int; machine : int; task : int; fate : fate }
  | Commit of {
      clock : int;
      machine : int;
      task : int;
      version : string;
      start : int;
      stop : int;
      score : float;
      alpha_term : float;  (** alpha * T100/|T| after this assignment *)
      beta_term : float;  (** beta * TEC/TSE (subtracted) *)
      gamma_term : float;  (** gamma * AET/tau (sign per the weights) *)
      pool_size : int;
      pool_score : float;
          (** the score the walk ranked the pool by — stale under SLRH-2,
              where [score] is the fresh pre-commit decomposition *)
      energy_remaining : float;  (** the machine's battery after the commit *)
      runner_up : (int * float) option;  (** (task, score) of the second-best *)
    }
  | Idle of { clock : int; machine : int; cause : idle_cause }
  | Exhausted of { clock : int; machine : int; pool_size : int }
      (** a walk committed nothing from a pool of [pool_size] (0: empty);
          every SLRH-2 drain and SLRH-3 rebuild loop ends with one *)
  | Churn of { clock : int; machine : int; event : string; detail : float }
  | Multiplier of {
      clock : int;
      epoch : int;  (** mapped-subtask count when the update fired *)
      round : int;  (** dual-ascent round (1-based; sets the step size) *)
      trigger : string;  (** ["epoch"] (commit progress) or ["churn"] *)
      step : float;  (** step size used, [c / sqrt round] *)
      g_energy : float;  (** energy-pacing subgradient TEC/TSE - clock/tau *)
      g_aet : float;  (** extent-pacing subgradient AET/tau - mapped/|T| *)
      lambda_energy : float;  (** multiplier AFTER the projected step *)
      lambda_aet : float;
      alpha_before : float;
      beta_before : float;
      gamma_before : float;
      alpha : float;
      beta : float;
      gamma : float;
    }
      (** An online dual-ascent update ({!module:Agrid_core} [Adapt]):
          why the Lagrangian weights moved at this clock. *)

type t

val create : unit -> t
val record : t -> entry -> unit
val length : t -> int

val entries : t -> entry array
(** Chronological (recording) order. *)

val iter : (entry -> unit) -> t -> unit

(** {2 JSONL} *)

val schema : string

val jsonl_lines : t -> string list
val to_jsonl : t -> string
val write_jsonl : string -> t -> unit

val of_jsonl : string -> t
(** Inverse of {!to_jsonl} (meta line optional, floats to 9 significant
    digits). @raise Invalid_argument with the line number on malformed
    input or a schema mismatch. *)

val load_jsonl : string -> t

(** {2 Queries} *)

val explain_task : t -> task:int -> string option
(** The commit entry for [task] (score decomposition, margin, pool) plus
    every prior consideration of it. [None] when the ledger never saw the
    task. *)

val explain_idle : t -> machine:int -> clock:int -> string option
(** The idle cause recorded for (machine, clock) and, when the pool was
    the problem, every candidate verdict at that step. Reports the commit
    instead if the machine was in fact not idle there. [None] when the
    ledger holds no record for that step. *)

val explain_multiplier : t -> round:int -> string option
(** Why dual round [round] moved the multipliers: the full update record
    (trigger, epoch, step size, measured subgradients, weights before and
    after) preceded by any churn entries at the same clock — the usual
    cause of an off-epoch update. [None] when no such round was
    recorded. *)

(** {2 Diff} *)

val decisions : t -> entry list
(** The decision stream: {!Commit} and {!Idle} entries, in order.
    {!Candidate}, {!Exhausted}, {!Churn} and {!Multiplier} entries are
    context, not scheduler choices. *)

type divergence = {
  div_index : int;  (** position in the decision stream *)
  div_left : entry option;  (** [None]: the left stream ended first *)
  div_right : entry option;
}

val first_divergence : t -> t -> divergence option
(** First position where the two decision streams part ways. Decisions
    compare structurally (clock, machine, task, version, interval, idle
    cause) — scores are not compared, so runs with different weights
    diverge where the {e choices} first differ, and the divergence then
    carries both sides' score decompositions. [None]: identical streams. *)

val pp_divergence : Format.formatter -> divergence -> unit
