(** The scenario service's wire format: one JSON object per line in both
    directions.

    {b Requests} carry [{"schema":"agrid-job/1","kind":...}]:
    - [kind:"job"] — a {!Job.spec}: a [scenario] object (see
      {!Agrid_workload.Serialize.scenario_ref_of_json}) plus optional
      scheduler fields ([alpha], [beta], [heuristic], [delta_t],
      [horizon], [mode], [events] as an {!Agrid_churn.Event.parse_trace}
      string, [deadline_ms], [tag], [tenant]) defaulting to the CLI's
      defaults.
    - [kind:"health"] — answered synchronously, never queued.
    - [kind:"stats"] — answered synchronously with an [agrid-stats/1]
      snapshot line (rolling-window rates/quantiles, queue and trace-ring
      occupancy); what [agrid top] polls.

    {b Responses} carry [{"schema":"agrid-job-result/1","type":...,"id":N}]
    where [id] is the server's monotone request id (every request gets
    one, malformed included): [type] is ["result"], ["rejected"] (reason
    ["queue_full"], ["malformed"], ["draining"], ["tenant_quota"] or —
    from the fleet router — ["all_backends_saturated"]), ["dropped"] (queued job
    discarded by a hard shutdown), ["maybe_executed"] (fleet router: the
    backend holding this in-flight job died, so under at-most-once
    semantics the job is not re-run) or ["health"].

    All parsers are total — hostile input comes back as [Error], pinned
    by the fuzz suite's mutation corpus. *)

val schema : string
(** ["agrid-job/1"] *)

type request = Submit of Job.spec | Health | Stats

val parse_request : string -> (request, string) result
(** Parse one request line. Never raises. *)

val job_to_json : Job.spec -> Agrid_obs.Json.t
(** The full envelope (schema/kind and every field, defaults included),
    such that [parse_request (Json.to_string (job_to_json j))] returns
    [Ok (Submit j)] — pinned by the round-trip property suite. *)

(** {2 Response lines} — each returns one line without the trailing
    newline. *)

val result_line : id:int -> tag:string option -> latency_s:float -> Job.result -> string
(** The per-job response: status, T100/mapped/AET, TEC (as both a ["%.9g"]
    float and an exact [tec_bits] hex spelling), the per-machine energy
    ledger, final clock, churn discard/sunk totals, wall and queue+run
    latency seconds. *)

val rejected_line :
  ?tag:string option ->
  id:int ->
  reason:[ `Queue_full | `Malformed | `Draining | `All_backends_saturated | `Tenant_quota ] ->
  detail:string ->
  unit ->
  string
(** [?tag] (default [None]) echoes the job's tag on [queue_full] /
    [draining] rejections so a relaying router can correlate the line to
    its in-flight entry; [malformed] rejections never have one. *)

val dropped_line : id:int -> tag:string option -> string

val maybe_executed_line :
  id:int -> tag:string option -> backend:string -> detail:string -> string
(** The fleet router's at-most-once ambiguity report: [backend] died with
    this job in flight, so it may or may not have executed and is not
    re-run. Carries [status:"maybe_executed"] alongside the type. *)

val health_line :
  id:int ->
  uptime_s:float ->
  queue_depth:int ->
  workers:int ->
  accepted:int ->
  completed:int ->
  string

val fleet_health_line :
  id:int ->
  uptime_s:float ->
  queue_depth:int ->
  backends:(string * string * int) list ->
  accepted:int ->
  completed:int ->
  string
(** The router's answer to a health probe: per-backend
    [(name, health, in_flight)] triples instead of a worker count. *)

(** {2 agrid-stats/1 live snapshots} — what a [kind:"stats"] request gets
    back: rolling-window (not lifetime) rates and latency quantiles plus
    queue/in-flight/trace-ring occupancy. *)

type stats_snapshot = {
  ss_role : string;  (** ["serve"] or ["router"] *)
  ss_id : int;
  ss_uptime_s : float;
  ss_queue_depth : int;
  ss_in_flight : int;
  ss_workers : int;  (** serve: worker domains; router: backend count *)
  ss_accepted : int;
  ss_completed : int;
  ss_window_s : float;  (** nominal rolling-window span, seconds *)
  ss_rate : float;  (** completions per second over the window *)
  ss_p50_s : float;  (** rolling latency quantiles; NaN = nothing observed *)
  ss_p95_s : float;
  ss_p99_s : float;
  ss_backends : (string * string * int) list;
      (** router only: [(name, health, in_flight)]; [[]] for serve *)
  ss_trace_events : int;  (** trace-ring occupancy; 0 when tracing is off *)
  ss_trace_dropped : int;
  ss_trace_exemplars : int;
}

val stats_line : stats_snapshot -> string

val parse_stats : string -> (stats_snapshot, string) result
(** Total, like every parser here. Non-finite quantiles travel as JSON
    [null] and come back as NaN. *)

(** {2 Response parsing} — the router's view of a backend's lines. *)

type response = {
  r_type : [ `Result | `Rejected | `Dropped | `Health | `Maybe_executed ];
  r_id : int;  (** the {e sender's} id — backend-local when relayed *)
  r_tag : string option;
  r_status : string option;  (** results: ["ok"] / ["deadline_missed"] / ["errored"] *)
  r_reason : [ `Queue_full | `Malformed | `Draining | `All_backends_saturated | `Tenant_quota ] option;
      (** present exactly when [r_type = `Rejected] *)
  r_json : Agrid_obs.Json.t;  (** the full parsed line, for relaying *)
}

val parse_response : string -> (response, string) result
(** Parse one response line. Never raises — total on hostile bytes, like
    {!parse_request}. *)

val with_identity : id:int -> tag:string option -> backend:string -> Agrid_obs.Json.t -> Agrid_obs.Json.t
(** Rewrite a relayed response's [id] and [tag] to the router's upstream
    identity and append the backend's name; every other field ([tec_bits]
    included) passes through untouched. *)
