(** An in-process fleet backend for tests, bench and the fault-injection
    soak: a real {!Agrid_serve.Server} bridged to the router through a
    socketpair, so the router's genuine socket paths (reads, writes, EOF,
    shutdown, reconnect) are exercised without child processes.

    Each accepted {!Router.backend_spec.connect} is an {e incarnation}:
    fresh socketpair, fresh server, fresh pump thread. Fault injection
    targets the current incarnation. *)

type t

val create :
  ?obs:Agrid_obs.Sink.t ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?tenant_caps:(string * int) list ->
  string ->
  t
(** A backend named [string] (the name the router reports in
    [maybe_executed] lines, health snapshots and stats). [obs] is handed
    to every incarnation's server — only safe to record when incarnations
    cannot overlap (no kills), as in the bench setup. [tenant_caps]
    (default none) is handed to every incarnation's server
    ({!Agrid_serve.Server.create}): per-tenant admission caps, enforced
    per incarnation. *)

val spec : t -> Router.backend_spec
(** The connect hook to hand to {!Router.create}. Raises [ECONNREFUSED]
    while {!refuse_connects} is on. *)

val kill : t -> unit
(** Abrupt death of the current incarnation: the socket closes under the
    router (EOF with whatever was in flight) and the server is hard-
    stopped in the background. No-op when not connected. The backend
    accepts new connects afterwards — that is the restart. *)

val shutdown : t -> unit
(** Like {!kill}, then wait until every dead incarnation — this one and
    any whose socket the router closed — has stopped its server and
    closed its socket: test/bench teardown that must not race a sink
    read, and after which no late response can reach a later socket. *)

val wedge : t -> unit
(** Freeze the current incarnation without closing anything: requests are
    no longer read and responses no longer flow, but the socket stays
    open — the failure mode probe timeouts exist to catch. *)

val unwedge : t -> unit

val refuse_connects : t -> bool -> unit
(** While on, new connects raise [ECONNREFUSED] (reconnect-backoff
    observation). *)

val incarnations : t -> int
(** Connects accepted so far. *)

val tenant_high_water : t -> string -> int
(** Maximum of {!Agrid_serve.Server.tenant_high_water} for this tenant
    across every incarnation so far, dead or alive — [0] for a tenant
    not named in [?tenant_caps]. The fleet soak pins this at or below
    the cap across kills and restarts. *)

val name : t -> string
