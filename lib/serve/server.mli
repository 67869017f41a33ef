(** The scenario service: a queued scheduling-job daemon.

    One server owns a bounded FIFO job queue ({!Agrid_par.Parallel.Chan})
    and a persistent pool of worker domains. {!submit} runs the admission
    ladder shared with the fleet router ({!Front}): every request
    (malformed and health included) gets a monotone id; health, stats and
    malformed lines are answered at once; a job over capacity gets a
    typed [queue_full] line (producers never block). The server adds only
    per-tenant admission caps. A job runs in two stages: {!submit}
    realizes it ({!Job.prepare}) on the calling domain before it is
    queued, and a worker runs the scheduler ({!Job.execute}), so the
    queue holds realized workloads. Each accepted job gets one
    {!Codec.result_line} through the caller's [respond] as workers
    finish. Responses are serialized, so [respond] needs no locking of
    its own. Every domain that takes a job runs with a 32,768-word minor
    heap ({!Front.size_minor_heap}).

    Telemetry: each job runs against a private sink (snapshot stride 8) merged into the pool
    sink afterwards, alongside [serve/*] counters (accepted, completed,
    deadline_missed, errored, worker_exn, queue_full, malformed,
    draining, tenant_quota, dropped, health, stats), the [serve/queue_depth]
    high-water gauge and the [serve/latency_s] histogram. With the
    default no-op sink all of it is inert. Request tracing is opt-in
    ([?trace]): enqueue, exec (with queue wait) and respond events, under
    the router-stamped trace id for relayed jobs. *)

type t

val create :
  ?obs:Agrid_obs.Sink.t ->
  ?trace:Agrid_obs.Trace.t ->
  ?tenant_caps:(string * int) list ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?prepare:(Job.spec -> Job.prepared) ->
  ?execute:(obs:Agrid_obs.Sink.t -> Job.prepared -> Job.result) ->
  unit ->
  t
(** A server with its queue, not yet running (see {!start}; {!drain}
    starts lazily, which tests use to exercise deterministic overflow).
    [obs] is the pool sink (default: no-op — inert); [trace] (default:
    none — tracing off, zero cost) collects per-request trace events;
    [tenant_caps] (default none) bounds each listed tenant's outstanding
    (queued or running) jobs — a job whose [tenant] is at its cap is
    rejected with a typed [tenant_quota] line before it ever touches the
    queue, and the slot is reserved atomically so racing producers can
    never overshoot the cap; unlisted tenants and untenanted jobs are
    never capped; [workers] (default
    {!Agrid_par.Parallel.default_domains}) sizes the domain pool;
    [queue_capacity] (default 64) bounds the queue. [prepare] and
    [execute] (default {!Job.prepare} and {!Job.execute}) are the two
    stages of a job; tests pass stand-ins that raise, to pin that one
    faulty job never stops the service.
    @raise Invalid_argument when [workers] or [queue_capacity] is
    nonpositive, or [tenant_caps] names an empty or duplicate tenant or a
    cap below 1. *)

val start : t -> unit
(** Spawn the worker pool (idempotent while running).
    @raise Invalid_argument after shutdown. *)

val submit : t -> respond:(string -> unit) -> string -> unit
(** Feed one request line. Exactly one response line reaches [respond]
    now (health, rejection) or later (job result, from a worker domain).
    A [respond] that raises is swallowed and counted
    ([stats.s_respond_errors]) — a client that hung up must not kill the
    pool. After {!drain}/{!stop}, jobs are rejected as [draining]. *)

val quiesce : t -> unit
(** Block until no submitted job is queued or running — the
    between-connections barrier of the socket front end. The pool keeps
    running. *)

val drain : t -> unit
(** Graceful shutdown (EOF / SIGINT with an intact queue): seal the
    queue, run every queued job to completion, then join the pool.
    Starts the pool first if it never ran. Idempotent. *)

val stop : t -> int
(** Hard shutdown: close the queue, answer every still-queued job with a
    [dropped] line, wait only for in-flight jobs, join the pool. Returns
    the number of dropped jobs. Idempotent (later calls return 0). *)

type stats = {
  s_requests : int;  (** ids assigned — every request line ever seen *)
  s_accepted : int;
  s_completed : int;  (** accepted jobs answered, any status *)
  s_deadline_missed : int;
  s_errored : int;  (** answered [errored], [s_worker_exn] included *)
  s_worker_exn : int;
      (** jobs whose [prepare] or [execute] raised an exception [Job]
          does not map; each is answered [errored] with the exception's
          name and counted as [serve/worker_exn], and service goes on *)
  s_queue_full : int;
  s_malformed : int;
  s_draining : int;
  s_tenant_quota : int;  (** jobs rejected at a tenant's admission cap *)
  s_dropped : int;
  s_health : int;
  s_stats : int;  (** [kind:"stats"] snapshot requests answered *)
  s_respond_errors : int;
  s_queue_high_water : int;
}

val stats : t -> stats

(** {2 Per-tenant admission counters} — all return [0] for a tenant not
    named in [?tenant_caps] (unknown or uncapped alike). *)

val tenant_outstanding : t -> string -> int
(** Jobs queued or running for this tenant right now. *)

val tenant_high_water : t -> string -> int
(** Lifetime maximum of {!tenant_outstanding} — the soak harness pins
    [tenant_high_water <= cap]. *)

val tenant_rejected : t -> string -> int
(** Lifetime [tenant_quota] rejections charged to this tenant. *)

val worker_heap_words : t -> int list
(** The minor heap size, in words, that each worker loop's domain ran
    with, recorded as the loop ended ([0] while it runs). Read it after
    {!drain} or {!stop}: a worker that served a job reports 32,768. *)

val queue_depth : t -> int
val uptime_s : t -> float

val trace : t -> Agrid_obs.Trace.t option
(** The collector passed to {!create}, if any — the socket front end
    dumps its JSONL at exit. *)

val pp_stats : Format.formatter -> stats -> unit
