(** Fork-join parallel iteration on OCaml 5 domains with dynamic
    (work-pulling) scheduling. Hand-rolled substrate: domainslib is not
    available in this environment.

    [?domains] caps the total number of domains used, including the calling
    one; the default is [Domain.recommended_domain_count ()].

    [?obs] (default: the inert {!Agrid_obs.Sink.noop}) times each call
    under the span ["par/map"] and counts fan-out (["par/items"],
    ["par/calls"], high-water gauge ["par/domains"]) — recorded on the
    calling domain only, never inside workers, so any sink is safe to
    pass. *)

exception Worker_failure of exn
(** Wraps the first exception raised by any worker; raised only after all
    worker domains have been joined. *)

val default_domains : unit -> int

val run_workers : domains:int -> n:int -> (int -> unit) -> unit
(** Run [work i] for every [i] in [0, n), pulled dynamically by up to
    [domains] domains (including the calling one — at most
    [min domains n - 1] extra domains are spawned). [n = 0] is a no-op
    that spawns nothing. The sharded campaign runner calls this directly
    with one item per shard so each worker owns a private telemetry sink.
    @raise Invalid_argument when [domains < 1] or [n < 0] — [domains] used
    to be clamped silently, hiding caller bugs.
    @raise Worker_failure after joining if any [work] call raised. *)

val map : ?obs:Agrid_obs.Sink.t -> ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
val mapi : ?obs:Agrid_obs.Sink.t -> ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
val iter : ?obs:Agrid_obs.Sink.t -> ?domains:int -> ('a -> unit) -> 'a array -> unit
val init : ?obs:Agrid_obs.Sink.t -> ?domains:int -> int -> (int -> 'a) -> 'a array

(** A bounded blocking FIFO channel between one-or-more producers and a
    persistent pool of consumer domains (the scenario service's job
    queue). Producers never block: a push against a full buffer is
    {e rejected}, which is how the service turns overload into a typed
    [queue_full] response instead of unbounded buffering. Consumers block
    in {!Chan.pop} until an item, a seal or a close arrives. *)
module Chan : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument when [capacity < 1]. *)

  val try_push : 'a t -> 'a -> [ `Accepted of int | `Rejected of [ `Full | `Closed ] ]
  (** Non-blocking. [`Accepted depth] reports the buffer depth including
      the new item (the service's queue-depth gauge); [`Rejected `Full] is
      backpressure, [`Rejected `Closed] arrives after {!seal}/{!close}. *)

  val pop : 'a t -> 'a option
  (** Block until an item is available ([Some]) or the channel can never
      produce one again ([None]: sealed and drained, or closed). *)

  val try_pop : 'a t -> timeout_s:float -> [ `Popped of 'a | `Timeout | `Closed ]
  (** Like {!pop}, but wait at most [timeout_s] seconds
      ([timeout_s <= 0.] checks once without waiting). The wait is event
      driven: it returns as soon as an item is pushed or the channel is
      sealed or closed, not at the next polling tick, so it can sit on a
      per-job path (the fleet router's dispatcher). [`Timeout] means the
      channel is still open but produced nothing in time; [`Closed] is
      {!pop}'s [None] (sealed and drained, or closed).

      The first call that has to wait gives the channel a self-pipe (two
      close-on-exec descriptors); channels that are only {!pop}ped never
      get one. {!seal} or {!close} releases it, or the last waiter still
      parked when that happens does. A channel left open keeps it. *)

  val seal : 'a t -> unit
  (** Graceful end-of-input: no further pushes; buffered items remain
      poppable. Idempotent; a no-op after {!close}. *)

  val close : 'a t -> 'a list
  (** Hard stop: no further pushes or pops; returns the buffered items in
      FIFO order so the caller can report them dropped. Idempotent (later
      calls return []). *)

  val length : 'a t -> int
  val high_water : 'a t -> int
  (** Deepest the buffer has ever been. *)
end
