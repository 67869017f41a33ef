(* The fault-tolerant front end over a fleet of scenario-service
   backends. One router owns a bounded admission queue, N backend
   connections (each with a sender and a reader thread), a dispatcher
   thread and a maintenance (probe/reconnect) thread. Admission itself —
   ids, parse, health/stats answers, queue_full/draining rejections, the
   completion window and the clock — is the ladder shared with the serve
   daemon ([Front]); the router adds the tag-token registration of
   [admit] and everything after the queue.

   The invariant everything here serves: {e exactly one response line per
   request, under monotone upstream ids, with at-most-once execution}.
   Concretely, every admitted job is tracked as an [entry] that is
   resolved exactly once, through one of:
   - a relayed backend response (result / dropped), identity rewritten;
   - an all_backends_saturated rejection once its attempts run out;
   - [maybe_executed], when the backend holding the job in flight died
     and we cannot know whether it ran — the at-most-once rule forbids
     re-running it.

   At-most-once hinges on the [entry] lifecycle. [Queued] and [Assigned]
   entries (in a backend's outbox, not yet written to its socket) are
   provably unexecuted, so backend death re-queues them — that is a
   failover. [Sent] entries are ambiguous and become [maybe_executed].
   The one exception: a sender whose {e write} raised re-queues its entry
   once ([e_reissued]) — the line very likely never arrived — and any
   second write failure is treated as ambiguous.

   Correlation is by tag token, not backend id: backend-local ids restart
   on reconnect, so the router rewrites each job's tag to ["f<entry id>"]
   before forwarding and matches responses on that token (the serve layer
   echoes tags even on queue_full/draining rejections for exactly this
   reason). The client's original tag is restored on the way out by
   [Codec.with_identity].

   Locking: [t.lock] guards all router state {e and all sink recording}
   (sinks are not thread-safe), the front's counters included. Resolved
   entries are answered through [Front.send] while holding [t.lock]
   (lock order: lock -> the front's output lock). Sockets are written by
   their sender thread only and read by their reader thread only;
   connection death is detected by the reader, which runs the
   (epoch-guarded) death path — other threads provoke it by
   [Unix.shutdown]ing the socket, which wakes a blocked reader where
   [Unix.close] would not. *)

module Sink = Agrid_obs.Sink
module Json = Agrid_obs.Json
module Trace = Agrid_obs.Trace
module Chan = Agrid_par.Parallel.Chan
module Codec = Agrid_serve.Codec
module Front = Agrid_serve.Front
module Job = Agrid_serve.Job
module Splitmix64 = Agrid_prng.Splitmix64

type config = {
  queue_capacity : int;  (** router admission queue bound *)
  inflight_cap : int;  (** max unresolved jobs per backend *)
  max_attempts : int;  (** dispatch attempts before all_backends_saturated *)
  backoff_base_s : float;
  backoff_cap_s : float;
  probe_interval_s : float;
  probe_timeout_s : float;
  degraded_rtt_s : float;
  dead_after_timeouts : int;  (** consecutive probe misses before the kill *)
  connect_backoff_s : float;
  seed : int;  (** jitter PRNG seed *)
}

let default_config =
  {
    queue_capacity = 64;
    inflight_cap = 8;
    max_attempts = 5;
    backoff_base_s = 0.05;
    backoff_cap_s = 2.0;
    probe_interval_s = 2.0;
    probe_timeout_s = 1.0;
    degraded_rtt_s = 0.25;
    dead_after_timeouts = 2;
    connect_backoff_s = 0.5;
    seed = 0;
  }

type backend_spec = { name : string; connect : unit -> Unix.file_descr }

type entry_state =
  | Queued
  | Assigned of int * int  (** backend index, connection epoch *)
  | Sent of int * int
  | Done

type entry = {
  e_id : int;
  e_tag : string option;  (** the client's tag, restored on the way out *)
  e_token : string;  (** "f<id>": the tag the backends see *)
  e_line : string;  (** the re-tagged request line forwarded verbatim *)
  e_respond : string -> unit;
  e_submitted : float;
  mutable e_state : entry_state;
  mutable e_attempts : int;
  mutable e_reissued : bool;  (** the one write-failure reissue was spent *)
}

type out_item = Out_job of entry | Out_probe

type conn = {
  cn_fd : Unix.file_descr;
  cn_ic : in_channel;
  cn_oc : out_channel;
  cn_outbox : out_item Chan.t;
  cn_epoch : int;
}

type backend = {
  b_index : int;
  b_name : string;
  b_connect : unit -> Unix.file_descr;
  mutable b_health : Policy.health;
  mutable b_conn : conn option;
  mutable b_epoch : int;  (** bumps on every death; guards the death path *)
  mutable b_inflight : int;
  mutable b_dispatched : int;
  mutable b_reconnects : int;
  mutable b_connecting : bool;  (** a (lock-free) connect attempt is running *)
  mutable b_probe_sent_at : float option;
  mutable b_probe_misses : int;
  mutable b_last_probe_done : float;
  mutable b_next_reconnect : float;
}

type t = {
  cfg : config;
  obs : Sink.t;
  backends : backend array;
  admission : entry Chan.t;
  bell : unit Chan.t;  (** rung on every retry; the drained dispatcher waits on it *)
  front : entry Front.t;
  table : (string, entry) Hashtbl.t;  (** token -> unresolved entry *)
  mutable retry_q : (float * entry) list;  (** due-time, unsorted *)
  mutable unresolved : int;
  mutable state : [ `Created | `Running | `Stopped ];
  mutable threads : Thread.t list;
  prng : Splitmix64.t;
  lock : Mutex.t;
  resolved : Condition.t;  (** broadcast whenever [unresolved] drops *)
  (* stats mirrors of the router-only fleet/* counters *)
  mutable c_retries : int;
  mutable c_failovers : int;
  mutable c_maybe_executed : int;
  mutable c_saturated : int;
  mutable c_probes : int;
  mutable c_probe_timeouts : int;
  mutable c_protocol_errors : int;
}

let with_lock = Front.with_lock
let now = Agrid_obs.Clock.now_s
let probe_bounds = [| 0.0005; 0.002; 0.01; 0.05; 0.25; 1. |]

(* Record a trace event for an entry (caller holds t.lock). The router
   derives the id from its own nonce — the same id it stamps into the
   forwarded line, so backend events correlate without coordination. *)
let trace_ev t (e : entry) kind = Front.record t.front ~trace_id:None ~job:e.e_id kind

let validate cfg =
  let bad name = invalid_arg (Fmt.str "Router.create: %s must be positive" name) in
  if cfg.queue_capacity < 1 then bad "queue_capacity";
  if cfg.inflight_cap < 1 then bad "inflight_cap";
  if cfg.max_attempts < 1 then bad "max_attempts";
  if cfg.backoff_base_s <= 0. then bad "backoff_base_s";
  if cfg.backoff_cap_s <= 0. then bad "backoff_cap_s";
  if cfg.probe_interval_s <= 0. then bad "probe_interval_s";
  if cfg.probe_timeout_s <= 0. then bad "probe_timeout_s";
  if cfg.degraded_rtt_s <= 0. then bad "degraded_rtt_s";
  if cfg.dead_after_timeouts < 1 then bad "dead_after_timeouts";
  if cfg.connect_backoff_s <= 0. then bad "connect_backoff_s"

let create ?(obs = Sink.noop) ?trace cfg specs =
  (* writes to dying backends must surface as EPIPE, not a fatal SIGPIPE *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  validate cfg;
  if specs = [] then invalid_arg "Router.create: need at least one backend";
  let backends =
    Array.of_list
      (List.mapi
         (fun i (s : backend_spec) ->
           {
             b_index = i;
             b_name = s.name;
             b_connect = s.connect;
             b_health = Policy.Dead;
             b_conn = None;
             b_epoch = 0;
             b_inflight = 0;
             b_dispatched = 0;
             b_reconnects = 0;
             b_connecting = false;
             b_probe_sent_at = None;
             b_probe_misses = 0;
             b_last_probe_done = 0.;
             b_next_reconnect = 0.;
           })
         specs)
  in
  let admission = Chan.create ~capacity:cfg.queue_capacity in
  let lock = Mutex.create () in
  {
    cfg;
    obs;
    backends;
    admission;
    bell = Chan.create ~capacity:1;
    front = Front.create Front.Router ~obs ~trace ~lock admission;
    table = Hashtbl.create 64;
    retry_q = [];
    unresolved = 0;
    state = `Created;
    threads = [];
    prng = Splitmix64.of_int cfg.seed;
    lock;
    resolved = Condition.create ();
    c_retries = 0;
    c_failovers = 0;
    c_maybe_executed = 0;
    c_saturated = 0;
    c_probes = 0;
    c_probe_timeouts = 0;
    c_protocol_errors = 0;
  }

(* ---- response output (caller holds t.lock) ---- *)

(* Resolve exactly once; in-flight bookkeeping is the caller's job. The
   line goes out under t.lock -> out_lock (see [Front]). *)
let resolve t e line =
  if e.e_state <> Done then begin
    e.e_state <- Done;
    Hashtbl.remove t.table e.e_token;
    t.unresolved <- t.unresolved - 1;
    Front.send t.front e.e_respond line;
    Condition.broadcast t.resolved
  end

(* Drop the backend's claim on an unresolved entry (caller holds lock). *)
let unassign t e =
  match e.e_state with
  | Assigned (i, _) | Sent (i, _) ->
      t.backends.(i).b_inflight <- t.backends.(i).b_inflight - 1;
      e.e_state <- Queued
  | Queued | Done -> ()

let resolve_saturated t e =
  t.c_saturated <- t.c_saturated + 1;
  Sink.incr t.obs "fleet/saturated";
  trace_ev t e (Trace.Respond { outcome = "all_backends_saturated" });
  resolve t e
    (Codec.rejected_line ~tag:e.e_tag ~id:e.e_id ~reason:`All_backends_saturated
       ~detail:
         (Fmt.str "no backend accepted the job after %d attempt(s)" e.e_attempts)
       ())

(* Queue [e] for re-dispatch at [due] (caller holds t.lock). *)
let requeue t due e =
  t.retry_q <- (due, e) :: t.retry_q;
  ignore (Chan.try_push t.bell ())

(* One dispatch attempt failed (no backend alive, or a backend said
   queue_full/draining/dropped): burn an attempt, then either give up as
   all_backends_saturated or schedule a jittered-backoff retry. *)
let consume_attempt t e =
  e.e_attempts <- e.e_attempts + 1;
  if e.e_attempts >= t.cfg.max_attempts then resolve_saturated t e
  else begin
    let u = Splitmix64.next_unit_float t.prng in
    let delay =
      Policy.backoff_s ~base_s:t.cfg.backoff_base_s ~cap_s:t.cfg.backoff_cap_s
        ~attempt:e.e_attempts ~u
    in
    requeue t (now () +. delay) e;
    t.c_retries <- t.c_retries + 1;
    Sink.incr t.obs "fleet/retries";
    trace_ev t e (Trace.Retry { attempt = e.e_attempts; delay_s = delay })
  end

(* Re-queue a provably unexecuted entry off backend [b] (caller holds
   t.lock). *)
let failover t b e =
  unassign t e;
  requeue t 0. e;
  t.c_failovers <- t.c_failovers + 1;
  Sink.incr t.obs "fleet/failovers";
  trace_ev t e (Trace.Failover { backend = b.b_name })

(* Wake a connection's blocked reader, which then runs the death path. *)
let kill conn = try Unix.shutdown conn.cn_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* ---- dispatch (caller holds t.lock) ---- *)

let try_dispatch_locked t e =
  if e.e_state = Done || t.state = `Stopped then ()
  else begin
    let healths = Array.map (fun b -> b.b_health) t.backends in
    let inflight = Array.map (fun b -> b.b_inflight) t.backends in
    match Policy.select ~healths ~inflight ~cap:t.cfg.inflight_cap with
    | `Pick i -> (
        let b = t.backends.(i) in
        match b.b_conn with
        | Some conn -> (
            match Chan.try_push conn.cn_outbox (Out_job e) with
            | `Accepted _ ->
                e.e_state <- Assigned (i, conn.cn_epoch);
                b.b_inflight <- b.b_inflight + 1;
                b.b_dispatched <- b.b_dispatched + 1;
                Sink.incr t.obs "fleet/dispatches";
                trace_ev t e
                  (Trace.Dispatch
                     { backend = b.b_name; attempt = e.e_attempts + 1 })
            | `Rejected _ -> consume_attempt t e)
        | None ->
            (* health said alive but the conn is gone: a death raced us *)
            consume_attempt t e)
    | `Wait ->
        (* alive but at the in-flight cap: backpressure, no attempt burned *)
        requeue t (now () +. 0.002) e
    | `Unavailable -> consume_attempt t e
  end

(* The dispatcher waits for the next admitted job, but never past the
   earliest retry's due time, so backoff retries and [`Wait] re-dispatches
   fire when they are due. A retry queued by another thread (a reader, the
   death path) does not wake a wait on the admission queue, so that wait
   is capped at [max_wait_s]. Once admission is drained the dispatcher
   waits on [t.bell] instead, which every [requeue] rings and
   [drain]/[stop] close. *)
let max_wait_s = 0.005

let dispatcher t () =
  let rec loop () =
    if t.state <> `Stopped then begin
      let timeout_s =
        with_lock t.lock (fun () ->
            let due, later = List.partition (fun (d, _) -> d <= now ()) t.retry_q in
            t.retry_q <- later;
            List.iter (fun (_, e) -> try_dispatch_locked t e) due;
            let now = now () in
            List.fold_left (fun w (d, _) -> Float.min w (d -. now)) max_wait_s t.retry_q)
      in
      (match Chan.try_pop t.admission ~timeout_s with
      | `Popped e -> with_lock t.lock (fun () -> try_dispatch_locked t e)
      | `Timeout -> ()
      | `Closed ->
          (* draining: keep serving retries until stop flips the state *)
          ignore (Chan.try_pop t.bell ~timeout_s));
      loop ()
    end
  in
  loop ()

(* ---- backend death (reader thread owns this; epoch-guarded) ---- *)

let on_conn_death t b ~epoch =
  with_lock t.lock (fun () ->
      if b.b_epoch = epoch then begin
        let conn = b.b_conn in
        b.b_epoch <- b.b_epoch + 1;
        b.b_conn <- None;
        b.b_health <- Policy.Dead;
        b.b_probe_sent_at <- None;
        b.b_probe_misses <- 0;
        b.b_next_reconnect <- now () +. t.cfg.connect_backoff_s;
        (match conn with
        | Some c ->
            (* Assigned-but-unwritten jobs are provably unexecuted: requeue
               them immediately. That is the failover. *)
            List.iter
              (function
                | Out_probe -> ()
                | Out_job e -> if e.e_state <> Done then failover t b e)
              (Chan.close c.cn_outbox)
        | None -> ());
        (* Sent jobs are ambiguous: at-most-once forbids re-running them. *)
        let ambiguous =
          Hashtbl.fold
            (fun _ e acc ->
              match e.e_state with
              | Sent (i, ep) when i = b.b_index && ep = epoch -> e :: acc
              | _ -> acc)
            t.table []
        in
        List.iter
          (fun e ->
            unassign t e;
            t.c_maybe_executed <- t.c_maybe_executed + 1;
            Sink.incr t.obs "fleet/maybe_executed";
            trace_ev t e (Trace.Death { backend = b.b_name });
            trace_ev t e (Trace.Respond { outcome = "maybe_executed" });
            resolve t e
              (Codec.maybe_executed_line ~id:e.e_id ~tag:e.e_tag ~backend:b.b_name
                 ~detail:
                   "backend died with the job in flight; not re-run (at-most-once)"))
          (List.sort (fun a b -> compare a.e_id b.e_id) ambiguous)
      end)

(* ---- per-connection sender ---- *)

let sender t b (conn : conn) () =
  let rec loop () =
    match Chan.pop conn.cn_outbox with
    | None -> () (* outbox closed by the death path *)
    | Some item ->
        let write_failed line =
          match
            output_string conn.cn_oc line;
            output_char conn.cn_oc '\n';
            flush conn.cn_oc
          with
          | () -> false
          | exception Sys_error _ -> true
        in
        (match item with
        | Out_probe ->
            if write_failed "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}" then
              kill conn
        | Out_job e ->
            let proceed =
              with_lock t.lock (fun () ->
                  match e.e_state with
                  | Assigned (i, ep) when i = b.b_index && ep = conn.cn_epoch ->
                      e.e_state <- Sent (i, ep);
                      true
                  | _ -> false (* resolved or re-routed while queued here *))
            in
            if proceed && write_failed e.e_line then begin
              (* The line very likely never arrived. Spend the single
                 reissue; a second write failure stays ambiguous and the
                 death path will report maybe_executed. *)
              with_lock t.lock (fun () ->
                  if e.e_state = Sent (b.b_index, conn.cn_epoch) && not e.e_reissued
                  then begin
                    e.e_reissued <- true;
                    failover t b e
                  end);
              kill conn
            end);
        loop ()
  in
  loop ()

(* ---- per-connection reader ---- *)

let handle_response t b (conn : conn) line =
  with_lock t.lock (fun () ->
      match Codec.parse_response line with
      | Error _ ->
          t.c_protocol_errors <- t.c_protocol_errors + 1;
          Sink.incr t.obs "fleet/protocol_errors"
      | Ok r -> (
          match r.Codec.r_type with
          | `Health ->
              (* the only health request we ever send is the probe *)
              (match b.b_probe_sent_at with
              | Some sent ->
                  let rtt = now () -. sent in
                  b.b_probe_sent_at <- None;
                  b.b_probe_misses <- 0;
                  b.b_last_probe_done <- now ();
                  b.b_health <-
                    Policy.classify_rtt ~rtt_s:rtt
                      ~degraded_rtt_s:t.cfg.degraded_rtt_s;
                  if Sink.enabled t.obs then
                    Sink.observe t.obs
                      ("fleet/probe_s/" ^ b.b_name)
                      ~bounds:probe_bounds rtt
              | None ->
                  t.c_protocol_errors <- t.c_protocol_errors + 1;
                  Sink.incr t.obs "fleet/protocol_errors")
          | `Result | `Dropped | `Rejected | `Maybe_executed -> (
              match
                Option.bind r.Codec.r_tag (Hashtbl.find_opt t.table)
              with
              | None ->
                  (* stale token (already resolved) or a line we never
                     asked for — count it, never crash, never duplicate *)
                  t.c_protocol_errors <- t.c_protocol_errors + 1;
                  Sink.incr t.obs "fleet/protocol_errors"
              | Some e -> (
                  match (r.Codec.r_type, r.Codec.r_reason) with
                  | `Rejected, Some (`Queue_full | `Draining | `Tenant_quota)
                  | `Dropped, _ ->
                      (* the backend declares it did NOT run the job:
                         safe to try another backend *)
                      unassign t e;
                      consume_attempt t e
                  | `Result, _ ->
                      unassign t e;
                      Front.complete t.front ~trace_id:None ~job:e.e_id
                        ~outcome:"result" ~counter:"fleet/completed"
                        ~latency_s:(now () -. e.e_submitted);
                      resolve t e
                        (Json.to_string
                           (Codec.with_identity ~id:e.e_id ~tag:e.e_tag
                              ~backend:b.b_name r.Codec.r_json))
                  | (`Rejected | `Maybe_executed | `Health), _ ->
                      (* malformed-with-our-token or a relayed
                         maybe_executed: neither should ever come from a
                         scenario-service backend. Retrying is the safe
                         default — the backend declared it did not run
                         the job. *)
                      unassign t e;
                      consume_attempt t e))));
  ignore conn

let reader t b (conn : conn) () =
  let rec loop () =
    match input_line conn.cn_ic with
    | line ->
        handle_response t b conn line;
        loop ()
    | exception (End_of_file | Sys_error _) -> ()
  in
  loop ();
  on_conn_death t b ~epoch:conn.cn_epoch;
  try Unix.close conn.cn_fd with Unix.Unix_error _ -> ()

(* ---- connect + synchronous probe handshake ---- *)

(* Byte-at-a-time line read under SO_RCVTIMEO: one line per connect, so
   throughput is irrelevant and the timeout semantics are exact. *)
let read_line_deadline fd ~timeout_s =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Error "connection closed during probe"
    | _ ->
        let c = Bytes.get byte 0 in
        if c = '\n' then Ok (Buffer.contents buf)
        else begin
          Buffer.add_char buf c;
          if Buffer.length buf > 65536 then Error "oversized probe response"
          else go ()
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error "probe timed out"
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  in
  let r = go () in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0. with Unix.Unix_error _ -> ());
  r

(* A probe answer that is not a health line is reported with its first
   80 bytes, so the failure says what the backend actually sent. *)
let probe_excerpt line = String.sub line 0 (min 80 (String.length line))

let probe_handshake fd ~timeout_s =
  let req = "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}\n" in
  let t0 = now () in
  match Unix.write_substring fd req 0 (String.length req) with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | _ -> (
      match read_line_deadline fd ~timeout_s with
      | Error _ as e -> e
      | Ok line -> (
          match Codec.parse_response line with
          | Ok { Codec.r_type = `Health; _ } -> Ok (now () -. t0)
          | Ok r ->
              Error
                (Fmt.str "probe answered with a non-health line (type %s): %S"
                   (Option.value ~default:"" (Json.get_string "type" r.Codec.r_json))
                   (probe_excerpt line))
          | Error msg ->
              Error (Fmt.str "probe answer unparseable: %s: %S" msg (probe_excerpt line))))

(* Connect + handshake run OUTSIDE the lock (they block up to the probe
   timeout); [b_connecting] keeps attempts from stacking up. Returns the
   handshake error when the backend stayed unreachable. *)
let attempt_connect t b ~is_reconnect =
  let fail msg =
    with_lock t.lock (fun () ->
        b.b_connecting <- false;
        b.b_health <- Policy.Dead;
        b.b_next_reconnect <- now () +. t.cfg.connect_backoff_s);
    Error msg
  in
  match b.b_connect () with
  | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)
  | exception Failure msg -> fail msg
  | fd -> (
      match probe_handshake fd ~timeout_s:t.cfg.probe_timeout_s with
      | Error msg ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          fail msg
      | Ok rtt ->
          with_lock t.lock (fun () ->
              b.b_connecting <- false;
              b.b_epoch <- b.b_epoch + 1;
              let conn =
                {
                  cn_fd = fd;
                  cn_ic = Unix.in_channel_of_descr fd;
                  cn_oc = Unix.out_channel_of_descr fd;
                  cn_outbox = Chan.create ~capacity:(t.cfg.inflight_cap + 2);
                  cn_epoch = b.b_epoch;
                }
              in
              b.b_conn <- Some conn;
              b.b_health <-
                Policy.classify_rtt ~rtt_s:rtt ~degraded_rtt_s:t.cfg.degraded_rtt_s;
              b.b_probe_sent_at <- None;
              b.b_probe_misses <- 0;
              b.b_last_probe_done <- now ();
              if is_reconnect then b.b_reconnects <- b.b_reconnects + 1;
              t.c_probes <- t.c_probes + 1;
              Sink.incr t.obs "fleet/probes";
              if Sink.enabled t.obs then
                Sink.observe t.obs ("fleet/probe_s/" ^ b.b_name) ~bounds:probe_bounds
                  rtt;
              t.threads <-
                Thread.create (sender t b conn) ()
                :: Thread.create (reader t b conn) ()
                :: t.threads);
          Ok ())

(* ---- maintenance: probes, probe-timeout kills, reconnects ---- *)

let maintenance t () =
  let tick = Float.min 0.05 (t.cfg.probe_timeout_s /. 4.) in
  let rec loop () =
    if t.state <> `Stopped then begin
      let reconnectable =
        with_lock t.lock (fun () ->
            Array.iter
              (fun b ->
                match b.b_conn with
                | Some conn -> (
                    match b.b_probe_sent_at with
                    | Some sent ->
                        let misses =
                          int_of_float ((now () -. sent) /. t.cfg.probe_timeout_s)
                        in
                        if misses > b.b_probe_misses then begin
                          t.c_probe_timeouts <-
                            t.c_probe_timeouts + (misses - b.b_probe_misses);
                          Sink.incr t.obs "fleet/probe_timeouts";
                          b.b_probe_misses <- misses;
                          (* wedged past the limit: kill it *)
                          if misses >= t.cfg.dead_after_timeouts then kill conn
                          else b.b_health <- Policy.Degraded
                        end
                    | None ->
                        if now () -. b.b_last_probe_done >= t.cfg.probe_interval_s
                        then
                          match Chan.try_push conn.cn_outbox Out_probe with
                          | `Accepted _ ->
                              b.b_probe_sent_at <- Some (now ());
                              t.c_probes <- t.c_probes + 1;
                              Sink.incr t.obs "fleet/probes"
                          | `Rejected _ -> ())
                | None -> ())
              t.backends;
            Array.to_list t.backends
            |> List.filter (fun b ->
                   b.b_conn = None && (not b.b_connecting)
                   && now () >= b.b_next_reconnect
                   && t.state = `Running)
            |> List.map (fun b ->
                   b.b_connecting <- true;
                   b))
      in
      List.iter
        (fun b -> ignore (attempt_connect t b ~is_reconnect:true))
        reconnectable;
      Thread.delay tick;
      loop ()
    end
  in
  loop ()

(* ---- lifecycle ---- *)

let start t =
  match t.state with
  | `Running -> Ok ()
  | `Stopped -> invalid_arg "Router.start: router is stopped"
  | `Created ->
      let errors =
        Array.to_list t.backends
        |> List.filter_map (fun b ->
               match attempt_connect t b ~is_reconnect:false with
               | Ok () -> None
               | Error msg -> Some (Fmt.str "%s: %s" b.b_name msg))
      in
      let connected =
        Array.fold_left
          (fun acc b -> if b.b_conn <> None then acc + 1 else acc)
          0 t.backends
      in
      if connected = 0 then
        Error
          (Fmt.str "no reachable backend (0 of %d connected): %s"
             (Array.length t.backends)
             (String.concat "; " errors))
      else begin
        with_lock t.lock (fun () ->
            t.state <- `Running;
            t.threads <-
              Thread.create (dispatcher t) ()
              :: Thread.create (maintenance t) ()
              :: t.threads);
        Ok ()
      end

let backend_triples t =
  Array.to_list t.backends
  |> List.map (fun b -> (b.b_name, Policy.health_to_string b.b_health, b.b_inflight))

(* Register before pushing: the dispatcher may pop, forward and see the
   response before [submit] returns, and the reader must find the entry
   in the table by then. *)
let admit t respond ~id (spec : Job.spec) =
  let token = "f" ^ string_of_int id in
  (* stamp the derived trace id into the forwarded line so the backend
     records under the same id; untraced routers forward lines
     byte-identical to before *)
  let fwd = { spec with Job.tag = Some token } in
  let fwd =
    match Front.trace t.front with
    | None -> fwd
    | Some tr -> { fwd with Job.trace_id = Some (Trace.id_for tr id) }
  in
  let e =
    {
      e_id = id;
      e_tag = spec.Job.tag;
      e_token = token;
      e_line = Json.to_string (Codec.job_to_json fwd);
      e_respond = respond;
      e_submitted = now ();
      e_state = Queued;
      e_attempts = 0;
      e_reissued = false;
    }
  in
  {
    Front.entry = e;
    trace_id = None;
    claim =
      (fun () ->
        Hashtbl.replace t.table token e;
        t.unresolved <- t.unresolved + 1;
        Ok ());
    undo =
      (fun () ->
        Hashtbl.remove t.table token;
        t.unresolved <- t.unresolved - 1);
  }

let submit t ~respond line =
  Front.submit t.front ~respond line
    ~health:(fun ~id ~uptime_s ~queue_depth ~accepted ~completed ->
      Codec.fleet_health_line ~id ~uptime_s ~queue_depth ~backends:(backend_triples t)
        ~accepted ~completed)
    ~load:(fun () ->
      {
        Front.in_flight = Array.fold_left (fun acc b -> acc + b.b_inflight) 0 t.backends;
        workers = Array.length t.backends;
        backends = backend_triples t;
      })
    ~admit:(admit t respond)

let quiesce t =
  with_lock t.lock (fun () ->
      while t.unresolved > 0 && t.state <> `Stopped do
        Condition.wait t.resolved t.lock
      done)

let shutdown_conns t =
  with_lock t.lock (fun () -> Array.iter (fun b -> Option.iter kill b.b_conn) t.backends)

(* Threads can spawn threads (reconnects), so join until the list is
   stable; [`Stopped] stops new spawns. *)
let join_all t =
  let rec go joined =
    let fresh =
      with_lock t.lock (fun () ->
          List.filter (fun th -> not (List.memq th joined)) t.threads)
    in
    if fresh <> [] then begin
      List.iter Thread.join fresh;
      go (fresh @ joined)
    end
  in
  go []

let drain t =
  Chan.seal t.admission;
  (* the dispatcher pops the sealed queue dry, retries/failovers keep
     running, and every entry resolves in bounded attempts — so this
     terminates even with every backend dead *)
  quiesce t;
  with_lock t.lock (fun () -> t.state <- `Stopped);
  ignore (Chan.close t.bell);
  shutdown_conns t;
  join_all t

let stop t =
  let leftovers = Chan.close t.admission in
  let dropped =
    with_lock t.lock (fun () ->
        t.state <- `Stopped;
        let drop e =
          if e.e_state <> Done then begin
            unassign t e;
            resolve t e (Front.drop t.front ~trace_id:None ~job:e.e_id ~tag:e.e_tag)
          end
        in
        List.iter drop leftovers;
        List.iter drop
          (Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
          |> List.sort (fun a b -> compare a.e_id b.e_id));
        t.retry_q <- [];
        (Front.counts t.front).Front.dropped)
  in
  ignore (Chan.close t.bell);
  shutdown_conns t;
  join_all t;
  dropped

(* ---- inspection ---- *)

type backend_stat = {
  bs_name : string;
  bs_health : string;
  bs_dispatched : int;
  bs_inflight : int;
  bs_reconnects : int;
}

type stats = {
  st_requests : int;
  st_accepted : int;
  st_completed : int;
  st_queue_full : int;
  st_draining : int;
  st_malformed : int;
  st_health : int;
  st_stats : int;
  st_retries : int;
  st_failovers : int;
  st_maybe_executed : int;
  st_saturated : int;
  st_dropped : int;
  st_probes : int;
  st_probe_timeouts : int;
  st_protocol_errors : int;
  st_respond_errors : int;
  st_backends : backend_stat list;
}

let stats t =
  with_lock t.lock (fun () ->
      let c = Front.counts t.front in
      {
        st_requests = c.Front.requests;
        st_accepted = c.accepted;
        st_completed = c.completed;
        st_queue_full = c.queue_full;
        st_draining = c.draining;
        st_malformed = c.malformed;
        st_health = c.health;
        st_stats = c.stats;
        st_retries = t.c_retries;
        st_failovers = t.c_failovers;
        st_maybe_executed = t.c_maybe_executed;
        st_saturated = t.c_saturated;
        st_dropped = c.dropped;
        st_probes = t.c_probes;
        st_probe_timeouts = t.c_probe_timeouts;
        st_protocol_errors = t.c_protocol_errors;
        st_respond_errors = c.respond_errors;
        st_backends =
          Array.to_list t.backends
          |> List.map (fun b ->
                 {
                   bs_name = b.b_name;
                   bs_health = Policy.health_to_string b.b_health;
                   bs_dispatched = b.b_dispatched;
                   bs_inflight = b.b_inflight;
                   bs_reconnects = b.b_reconnects;
                 });
      })

let health_snapshot t = with_lock t.lock (fun () -> backend_triples t)

let queue_depth t = Chan.length t.admission
let uptime_s t = Front.uptime_s t.front
let trace t = Front.trace t.front

let pp_stats ppf s =
  Fmt.pf ppf
    "%d requests (%d accepted, %d completed, %d queue_full, %d draining, %d \
     malformed, %d health, %d stats), %d retries, %d failovers, %d \
     maybe_executed, %d saturated, %d dropped, %d probes (%d timeouts), %d \
     protocol errors, %d respond errors"
    s.st_requests s.st_accepted s.st_completed s.st_queue_full s.st_draining s.st_malformed
    s.st_health s.st_stats s.st_retries s.st_failovers s.st_maybe_executed
    s.st_saturated s.st_dropped s.st_probes s.st_probe_timeouts
    s.st_protocol_errors s.st_respond_errors;
  List.iter
    (fun b ->
      Fmt.pf ppf "@.  %s: %s, %d dispatched, %d in flight, %d reconnects"
        b.bs_name b.bs_health b.bs_dispatched b.bs_inflight b.bs_reconnects)
    s.st_backends
