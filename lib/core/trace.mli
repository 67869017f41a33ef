(** Execution tracing: the paper's "historical record of all critical
    parameters" (Section IV), as a view of the decision ledger — one event
    per mapping decision point. Attach a ledger through {!Slrh.params}'s
    [obs] sink ([Agrid_obs.Sink.create ~ledger:true]) and read the trace
    with {!of_ledger}. *)

open Agrid_workload

type kind =
  | Assigned of {
      task : int;
      version : Version.t;
      start : int;
      stop : int;
      score : float;
      pool_size : int;
      energy_remaining : float;
    }
  | Pool_empty
  | Horizon_miss of { pool_size : int }

type event = { clock : int; machine : int; kind : kind }

type t

val of_ledger : Agrid_obs.Ledger.t -> t
(** One event per [Commit] ([Assigned], scored by the pool score the walk
    ranked it by) and per [Exhausted] ([Pool_empty] for an empty pool,
    [Horizon_miss] otherwise) entry, in ledger order; every other entry is
    context the trace leaves out.
    @raise Invalid_argument on a commit whose version name is unknown. *)

val length : t -> int
val events : t -> event array
(** Chronological (ledger) order. *)

type summary = {
  n_assigned : int;
  n_pool_empty : int;
  n_horizon_miss : int;
  mean_pool_size : float;
  first_assignment_clock : int option;
  last_assignment_clock : int option;
}

val summarize : t -> summary
val pp_summary : Format.formatter -> summary -> unit

val csv_header : string list
val csv_rows : t -> string list list
(** Pair with {!Agrid_report.Csv}. Every event kind exports: [assigned]
    rows carry the full record, [pool_empty] a pool size of 0,
    [horizon_miss] its pool size. *)

val of_csv_rows : string list list -> t
(** Inverse of {!csv_rows} (header excluded). Floats round-trip through
    the writer's [%.6f], so scores and energies are recovered to 1e-6
    rather than bit-exactly.
    @raise Invalid_argument on a malformed row. *)

val lint_csv_rows : string list list -> (int * string) list
(** Every malformed row with its diagnostic, 0-indexed (header excluded).
    Where {!of_csv_rows} raises at the first problem, this walks the
    whole input — the check behind [agrid trace lint]. Empty = clean. *)
