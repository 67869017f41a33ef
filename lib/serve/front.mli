(** The admission front shared by the scenario service ({!Server}) and the
    fleet router ([Agrid_fleet.Router]): one parse -> health/stats ->
    enqueue-or-reject ladder, its counters, a rolling window and the
    monotonic clock ({!Agrid_obs.Clock.now_s}). The daemon owns the lock
    and the queue; the front records every counter, sink metric, window
    sample and trace event under that lock.

    Lock order: daemon lock -> queue lock -> output lock. {!submit} sends
    its answers after releasing the daemon lock; {!send} takes only the
    output lock, so it may be called with or without the daemon lock
    held. A [respond] must never take the daemon lock. *)

type role =
  | Serve  (** a scenario-service daemon: [serve/*] metrics *)
  | Router  (** a fleet router: [fleet/*] metrics, plus [fleet/requests] *)

type 'e t
(** The front of a daemon whose queue carries entries of type ['e]. *)

val create :
  role -> obs:Agrid_obs.Sink.t -> trace:Agrid_obs.Trace.t option ->
  lock:Mutex.t -> 'e Agrid_par.Parallel.Chan.t -> 'e t
(** A front admitting into the queue and recording into [obs] and
    [trace] under [lock]. Uptime counts from here. *)

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
(** Run [f] holding the mutex, releasing it on any exit. *)

val minor_heap_words : int
(** The minor heap size, in words, of every daemon domain: 32,768
    (256 KiB) in place of OCaml's 262,144. *)

val size_minor_heap : unit -> unit
(** Resize the calling domain's minor heap to {!minor_heap_words}, once
    per domain (later calls are a domain-local flag check). {!submit}
    calls it on a domain's first job; worker domains call it on theirs.
    The first call forces a minor collection, so it stays off the path
    to a daemon's first health answer. *)

val uptime_s : 'e t -> float
(** Monotonic seconds since {!create}. *)

val trace : 'e t -> Agrid_obs.Trace.t option
(** The collector passed to {!create}. *)

type load = {
  in_flight : int;  (** accepted jobs not yet answered *)
  workers : int;  (** serve: worker domains; router: backend count *)
  backends : (string * string * int) list;  (** router: [(name, health, in_flight)] *)
}
(** The daemon's share of an [agrid-stats/1] snapshot. *)

type 'e admission = {
  entry : 'e;  (** what goes on the queue *)
  trace_id : string option;  (** trace id for the enqueue event; [None] derives it *)
  claim : unit -> (unit, string) result;
      (** run under the lock just before the push; [Error line] refuses
          the job with that (daemon-specific) response line *)
  undo : unit -> unit;  (** run under the lock when the queue rejects the job *)
}
(** A daemon's view of one job it is about to admit. *)

val submit :
  'e t ->
  health:
    (id:int -> uptime_s:float -> queue_depth:int -> accepted:int ->
     completed:int -> string) ->
  load:(unit -> load) ->
  admit:(id:int -> Job.spec -> 'e admission) ->
  respond:(string -> unit) ->
  string ->
  unit
(** Feed one request line: take the next id, parse outside the lock, and
    answer a malformed line, a [health] request (the daemon's [health]
    line) or a [stats] request (window, trace ring, queue and [load ()])
    at once. A job first sizes the calling domain's minor heap
    ({!size_minor_heap}), then goes through [admit ~id spec] (outside the
    lock), then its [claim] and the push; a full or closed queue answers
    a tagged [queue_full] or [draining] rejection after [undo]. *)

val send : 'e t -> (string -> unit) -> string -> unit
(** Write one response line under the output lock; a [respond] that
    raises is counted ({!counts}[.respond_errors]), never propagated. *)

val record : 'e t -> trace_id:string option -> job:int -> Agrid_obs.Trace.kind -> unit
(** Record a trace event when tracing is on (caller holds the lock);
    [trace_id = None] derives the id from the collector's nonce. *)

val complete :
  'e t -> trace_id:string option -> job:int -> outcome:string -> counter:string ->
  latency_s:float -> unit
(** Count one answered job (caller holds the lock): the [completed]
    count, the sink [counter], the window's rate and latency samples,
    [<prefix>/latency_s] and the trace's [respond] event with [outcome]. *)

val drop : 'e t -> trace_id:string option -> job:int -> tag:string option -> string
(** Count one queued job abandoned by a hard stop (caller holds the
    lock) and return its [dropped] line for the daemon to send. *)

type counts = {
  requests : int;  (** ids assigned: every request line seen *)
  accepted : int;
  completed : int;
  queue_full : int;
  malformed : int;
  draining : int;
  health : int;
  stats : int;  (** [kind:"stats"] snapshots answered *)
  dropped : int;
  respond_errors : int;
}

val counts : 'e t -> counts
(** The admission counters (caller holds the lock). *)
