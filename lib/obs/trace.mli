(** Per-request distributed tracing: a bounded ring of typed events plus
    a slow-job exemplar buffer, exported as [agrid-trace/1] JSONL and
    Chrome trace-event JSON (loadable in chrome://tracing or Perfetto).

    Trace ids are a pure function of (run nonce, job id) — {!id_for} —
    so a router and its backends derive the same id for the same job
    without coordination: the router stamps the id into the forwarded
    request line and the backend adopts it.

    Memory bounds: the event ring holds [capacity] events (oldest
    overwritten first, drops counted), the exemplar buffer the
    [exemplars] slowest complete timelines, and the open-timeline table
    at most [pending_cap] in-flight jobs of 256 events each (a full
    timeline drops later events; its [Respond] still closes it).

    Not thread-safe — record under the lock that guards the owner's
    other counters (the serve/fleet daemons do). *)

type kind =
  | Enqueue  (** admitted to a queue *)
  | Dispatch of { backend : string; attempt : int }  (** handed to a backend *)
  | Retry of { attempt : int; delay_s : float }  (** scheduled for backoff *)
  | Failover of { backend : string }  (** requeued off a dead backend *)
  | Death of { backend : string }  (** backend died holding the job *)
  | Exec of { queue_wait_s : float }  (** execution started after waiting *)
  | Respond of { outcome : string }  (** response sent; timeline complete *)

type event = {
  ev_trace : string;  (** the trace id, [id_for] of the originating run *)
  ev_job : int;
  ev_t_s : float;  (** seconds since the collector was created *)
  ev_kind : kind;
}

type exemplar = {
  x_trace : string;
  x_job : int;
  x_duration_s : float;  (** enqueue-to-respond latency *)
  x_events : event list;  (** the full timeline, oldest first *)
}

type t

val create :
  ?capacity:int ->
  ?exemplars:int ->
  ?pending_cap:int ->
  nonce:int ->
  unit ->
  t
(** Defaults: 4096-event ring, 4 exemplars, 1024 open timelines.
    [nonce] seeds trace-id derivation — give every run a distinct one
    (the CLI uses its PRNG seed). *)

val id_for : t -> int -> string
(** The deterministic trace id of a job: a 16-hex-digit splitmix64 hash
    of ({!nonce}, job id), so any collector with the same nonce derives
    the same id. *)

val nonce : t -> int

val record : ?id:string -> t -> job:int -> kind -> unit
(** Append one event (timestamped now). [?id] overrides the derived trace
    id — a backend passes the id stamped by its router. [Enqueue] opens
    the job's timeline; [Respond] closes it and considers it for the
    exemplar buffer. *)

val events : t -> event list
(** The retained ring window, oldest first. *)

val length : t -> int
val pushed : t -> int
val dropped : t -> int
val capacity : t -> int

val exemplars : t -> exemplar list
(** Slowest first; at most the configured count. *)

val n_pending : t -> int
(** Open (enqueued, not yet responded) timelines currently tracked. *)

(** {2 agrid-trace/1 JSONL} *)

val schema : string

type line =
  | Meta of { nonce : int; events : int; dropped : int; exemplars : int }
  | Event of event
  | Exemplar of exemplar

val line_to_string : line -> string
val jsonl_lines : t -> string list
val to_jsonl : t -> string
val write_jsonl : string -> t -> unit

val parse_jsonl : string list -> (line list, string) result
(** Parse every line (blank lines skipped); the first failure is reported
    with its line number. Total: hostile bytes come back as [Error],
    never an exception. *)

(** {2 Chrome trace-event JSON} *)

val chrome_of_lines : line list -> string
(** One Chrome trace-event document: an instant event per point event and
    a complete ("X") span per job. Ring events render under pid 0,
    exemplar timelines under pid 1. *)
