(** The fault-tolerant front end over a fleet of scenario-service
    backends ([agrid serve] daemons).

    One router accepts [agrid-job/1] request lines, assigns each a
    monotone upstream id, and load-balances jobs over its backends
    (least-loaded healthy first — {!Policy.select}) under a per-backend
    in-flight cap. Backends are health-probed periodically; probe
    timeouts degrade then kill a connection, and killed/refused backends
    are reconnected with backoff.

    The contract is {e exactly one response line per request, at-most-once
    execution}:
    - a backend's [queue_full]/[draining]/[dropped] answer, or no backend
      being alive, costs one of a job's bounded attempts; attempts are
      retried with jittered exponential backoff and exhausting them
      surfaces a typed [all_backends_saturated] rejection;
    - a backend dying with the job accepted-but-unwritten re-queues it on
      another backend (a {e failover} — provably unexecuted);
    - a backend dying with the job written ([Sent]) resolves it as a
      typed [maybe_executed] line: the job may have run, so it is never
      re-run.

    Admission (ids, health and [kind:"stats"] answers, typed
    [queue_full]/[draining] rejections, the rolling window and the
    monotonic clock) is the ladder shared with [agrid serve]
    ({!Agrid_serve.Front}); health answers carry per-backend
    [(name, health, in_flight)] triples ({!Codec.fleet_health_line}).
    Relayed responses get their upstream id/tag restored and the serving
    backend's name appended.

    Telemetry (all sink recording under the router's lock): [fleet/*]
    counters (requests, accepted, completed, dispatches, retries,
    failovers, maybe_executed, saturated, queue_full, draining, malformed,
    health, stats, probes, probe_timeouts, protocol_errors, dropped), the
    [fleet/queue_depth] high-water gauge, the [fleet/latency_s] histogram
    and per-backend probe-RTT histograms [fleet/probe_s/<name>].
    Per-backend dispatch splits are timing-dependent, so they live only
    in {!stats}, never in the sink. With [?trace], every accepted job
    records its lifecycle (enqueue, dispatch, retry, failover, backend
    death, respond) under a derived trace id that is also stamped into
    the forwarded line, so a tracing backend records under the same id. *)

type config = {
  queue_capacity : int;  (** router admission queue bound *)
  inflight_cap : int;  (** max unresolved jobs per backend *)
  max_attempts : int;  (** dispatch attempts before all_backends_saturated *)
  backoff_base_s : float;
  backoff_cap_s : float;
  probe_interval_s : float;
  probe_timeout_s : float;
  degraded_rtt_s : float;  (** probe RTT above this marks the backend degraded *)
  dead_after_timeouts : int;  (** consecutive probe misses before the kill *)
  connect_backoff_s : float;  (** delay between reconnect attempts *)
  seed : int;  (** backoff-jitter PRNG seed (reproducible soak runs) *)
}

val default_config : config
(** 64-deep queue, 8 in flight per backend, 5 attempts, 50 ms..2 s
    backoff, 2 s probes with a 1 s timeout, dead after 2 misses. *)

type backend_spec = {
  name : string;
  connect : unit -> Unix.file_descr;
      (** fresh connection to the backend; raises [Unix.Unix_error] or
          [Failure] when unreachable. Called again (with backoff) after
          every death. The in-process {!Sim} backend and the CLI's
          Unix-socket paths both fit this shape. *)
}

type t

val create :
  ?obs:Agrid_obs.Sink.t -> ?trace:Agrid_obs.Trace.t -> config ->
  backend_spec list -> t
(** A router over the given backends, not yet connected (see {!start}).
    [trace] (default: none — tracing off, zero cost) collects
    per-request lifecycle events.
    @raise Invalid_argument on a nonpositive config field or an empty
    backend list. *)

val start : t -> (unit, string) result
(** Connect every backend (each with a synchronous bounded-time health
    handshake) and spawn the dispatcher and maintenance threads.
    [Error] — with one reason per backend — when {e zero} backends are
    reachable; a partial fleet starts fine and keeps reconnecting the
    rest. Idempotent while running.
    @raise Invalid_argument after {!stop}/{!drain}. *)

val submit : t -> respond:(string -> unit) -> string -> unit
(** Feed one request line; exactly one response line reaches [respond],
    now (health, rejections) or later (relayed results, failover
    outcomes) — response writes are serialized, and a [respond] that
    raises is swallowed and counted. Jobs over the admission bound are
    rejected [queue_full]; after {!drain}/{!stop}, [draining]. *)

val quiesce : t -> unit
(** Block until every accepted job has resolved — the between-connections
    barrier of the socket front end. The router keeps running. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting, resolve everything in flight
    (retries, failovers and [maybe_executed] included — terminates even
    with every backend dead, via bounded attempts), then disconnect and
    join all threads. *)

val stop : t -> int
(** Hard shutdown: answer every unresolved job with a [dropped] line,
    disconnect, join. Returns the number dropped. *)

type backend_stat = {
  bs_name : string;
  bs_health : string;
  bs_dispatched : int;
  bs_inflight : int;
  bs_reconnects : int;
}

type stats = {
  st_requests : int;  (** ids assigned — every request line seen *)
  st_accepted : int;
  st_completed : int;  (** relayed result lines *)
  st_queue_full : int;  (** router-level admission rejections *)
  st_draining : int;  (** jobs submitted after {!drain}/{!stop} began *)
  st_malformed : int;
  st_health : int;
  st_stats : int;  (** [kind:"stats"] snapshot requests answered *)
  st_retries : int;  (** backoff retries scheduled *)
  st_failovers : int;  (** provably-unexecuted jobs re-queued off a dead backend *)
  st_maybe_executed : int;  (** ambiguous jobs reported, never re-run *)
  st_saturated : int;  (** jobs that exhausted their attempts *)
  st_dropped : int;  (** unresolved jobs answered [dropped] by {!stop} *)
  st_probes : int;
  st_probe_timeouts : int;
  st_protocol_errors : int;  (** unparseable/uncorrelatable backend lines *)
  st_respond_errors : int;
  st_backends : backend_stat list;
}

val stats : t -> stats

val health_snapshot : t -> (string * string * int) list
(** Per backend: name, health spelling, jobs in flight — the triples in
    {!Codec.fleet_health_line}. *)

val queue_depth : t -> int
val uptime_s : t -> float

val trace : t -> Agrid_obs.Trace.t option
(** The collector passed to {!create}, if any — the socket front end
    dumps its JSONL at exit. *)

val pp_stats : Format.formatter -> stats -> unit
