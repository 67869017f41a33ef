(** The telemetry sink instrumented call sites report into.

    {!noop} — the default on every instrumented API — is provably inert:
    each recording function pattern-matches to [()] before touching its
    arguments, so uninstrumented runs behave and perform exactly as
    before. An active sink carries a {!Registry}, a {!Span} table and a
    bounded {!Snapshot.Ring}.

    Concurrency contract: a sink is single-domain. Parallel code gives
    each worker a private sink (or the no-op) and folds the results with
    {!merge_into} after the join; merging is associative and commutative,
    so the grouping never matters. *)

type t

val noop : t
(** The inert sink. *)

val create : ?stride:int -> ?capacity:int -> ?ledger:bool -> unit -> t
(** An active sink. [stride] (default 1) samples every n-th
    {!tick_snapshot}; [capacity] (default 4096) bounds the snapshot ring;
    [ledger] (default [false]) attaches a decision {!Ledger.t} — opt-in
    because per-candidate rejection reasons cost real work to compute.
    @raise Invalid_argument on a nonpositive stride. *)

val enabled : t -> bool

val ledger : t -> Ledger.t option
(** The decision ledger, when this sink carries one. Instrumented call
    sites guard every ledger record on this, so a sink without one (and
    the no-op sink in particular) never pays for decision recording. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set_gauge : t -> string -> float -> unit
val max_gauge : t -> string -> float -> unit
val observe : t -> string -> bounds:float array -> float -> unit

val span : t -> string -> (unit -> 'a) -> 'a
(** Time the thunk under the name; on the no-op sink this is exactly
    [f ()]. *)

val record_span : t -> string -> float -> unit

val tick_snapshot : t -> make:(unit -> Snapshot.t) -> bool
(** One sampling tick: on every [stride]-th call, build the record (the
    thunk runs only then) and push it. Returns whether it sampled, so the
    caller can reset per-window accumulators. Always [false] on the no-op
    sink. *)

val metrics : t -> (string * Registry.metric) list
(** Name-sorted; empty on the no-op sink. *)

val span_stats : t -> Span.stats list
val snapshots : t -> Snapshot.t list
val snapshots_dropped : t -> int
val n_metrics : t -> int
val n_spans : t -> int
val n_snapshots : t -> int

val merge_into : into:t -> t -> unit
(** Merging [noop] into anything is a no-op. Ledger entries append in
    order when both sinks carry a ledger (and are dropped otherwise —
    parallel workers do not record decisions).
    @raise Invalid_argument when merging an active sink into [noop], or on
    a metric kind/bounds clash. *)
