(* The admission ladder both daemons share (see front.mli for the lock
   order). [send] counts a failed write in an Atomic rather than under the
   daemon lock, which is what lets the router call it holding that lock
   and the server's workers call it without. *)

module Sink = Agrid_obs.Sink
module Window = Agrid_obs.Window
module Trace = Agrid_obs.Trace
module Clock = Agrid_obs.Clock
module Chan = Agrid_par.Parallel.Chan

type role = Serve | Router

type 'e t = {
  role : role;
  prefix : string;  (* sink metric prefix *)
  obs : Sink.t;
  trace : Trace.t option;
  window : Window.t;  (* rolling last-60s stats *)
  lock : Mutex.t;
  out_lock : Mutex.t;
  chan : 'e Chan.t;
  started : float;
  respond_errors : int Atomic.t;  (* bumped under out_lock, not lock *)
  mutable next_id : int;
  mutable accepted : int;
  mutable completed : int;
  mutable queue_full : int;
  mutable malformed : int;
  mutable draining : int;
  mutable health : int;
  mutable stats : int;
  mutable dropped : int;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* OCaml 5 gives every domain a 262,144-word (2 MiB) minor heap, and
   [Gc.set] resizes only the calling domain's, so each daemon domain
   sizes its own. It does so at its first job rather than at startup:
   the shrink forces that domain's first minor collection, which would
   otherwise delay the first health answer. *)
let minor_heap_words = 32_768

let sized = Domain.DLS.new_key (fun () -> false)

let size_minor_heap () =
  if not (Domain.DLS.get sized) then begin
    Domain.DLS.set sized true;
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words }
  end

let latency_bounds = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.; 10. |]

let create role ~obs ~trace ~lock chan =
  {
    role;
    prefix = (match role with Serve -> "serve" | Router -> "fleet");
    obs;
    trace;
    window = Window.create ();
    lock;
    out_lock = Mutex.create ();
    chan;
    started = Clock.now_s ();
    respond_errors = Atomic.make 0;
    next_id = 0;
    accepted = 0;
    completed = 0;
    queue_full = 0;
    malformed = 0;
    draining = 0;
    health = 0;
    stats = 0;
    dropped = 0;
  }

let uptime_s f = Clock.now_s () -. f.started
let trace f = f.trace
let incr f name = if Sink.enabled f.obs then Sink.incr f.obs (f.prefix ^ "/" ^ name)

let send f respond line =
  with_lock f.out_lock (fun () ->
      match respond line with
      | () -> ()
      | exception _ -> Atomic.incr f.respond_errors)

let record f ~trace_id ~job kind =
  match f.trace with
  | None -> ()
  | Some tr -> Trace.record ?id:trace_id tr ~job kind

type load = {
  in_flight : int;
  workers : int;
  backends : (string * string * int) list;
}

(* caller holds the lock *)
let stats_line f ~id (l : load) =
  let now = Clock.now_s () in
  let q p =
    match Window.merged_hist f.window ~now "latency_s" with
    | None -> Float.nan
    | Some h -> Agrid_obs.Hist.quantile h p
  in
  let trace_events, trace_dropped, trace_exemplars =
    match f.trace with
    | None -> (0, 0, 0)
    | Some tr -> (Trace.length tr, Trace.dropped tr, List.length (Trace.exemplars tr))
  in
  Codec.stats_line
    {
      Codec.ss_role = (match f.role with Serve -> "serve" | Router -> "router");
      ss_id = id;
      ss_uptime_s = now -. f.started;
      ss_queue_depth = Chan.length f.chan;
      ss_in_flight = l.in_flight;
      ss_workers = l.workers;
      ss_accepted = f.accepted;
      ss_completed = f.completed;
      ss_window_s = Window.window_s f.window;
      ss_rate = Window.rate f.window ~now "completed";
      ss_p50_s = q 0.5;
      ss_p95_s = q 0.95;
      ss_p99_s = q 0.99;
      ss_backends = l.backends;
      ss_trace_events = trace_events;
      ss_trace_dropped = trace_dropped;
      ss_trace_exemplars = trace_exemplars;
    }

type 'e admission = {
  entry : 'e;
  trace_id : string option;
  claim : unit -> (unit, string) result;
  undo : unit -> unit;
}

let submit f ~health ~load ~admit ~respond line =
  let locked g = with_lock f.lock g in
  let id =
    locked (fun () ->
        let id = f.next_id in
        f.next_id <- id + 1;
        (* the router has always exported its request count; serve never
           has, and the benched counter sets pin both *)
        if f.role = Router then incr f "requests";
        id)
  in
  let answer =
    match Codec.parse_request line with
    | Error detail ->
        locked (fun () ->
            f.malformed <- f.malformed + 1;
            incr f "malformed");
        Some (Codec.rejected_line ~id ~reason:`Malformed ~detail ())
    | Ok Codec.Health ->
        Some
          (locked (fun () ->
               f.health <- f.health + 1;
               incr f "health";
               health ~id ~uptime_s:(uptime_s f) ~queue_depth:(Chan.length f.chan)
                 ~accepted:f.accepted ~completed:f.completed))
    | Ok Codec.Stats ->
        Some
          (locked (fun () ->
               f.stats <- f.stats + 1;
               incr f "stats";
               stats_line f ~id (load ())))
    | Ok (Codec.Submit spec) -> (
        size_minor_heap ();
        let a = admit ~id spec in
        let rejected reason detail =
          Codec.rejected_line ~tag:spec.Job.tag ~id ~reason ~detail ()
        in
        locked (fun () ->
            match a.claim () with
            | Error line -> Some line
            | Ok () -> (
                match Chan.try_push f.chan a.entry with
                | `Accepted depth ->
                    f.accepted <- f.accepted + 1;
                    incr f "accepted";
                    record f ~trace_id:a.trace_id ~job:id Trace.Enqueue;
                    if Sink.enabled f.obs then
                      Sink.max_gauge f.obs (f.prefix ^ "/queue_depth") (float_of_int depth);
                    None
                | `Rejected `Full ->
                    a.undo ();
                    f.queue_full <- f.queue_full + 1;
                    incr f "queue_full";
                    Some
                      (rejected `Queue_full
                         (Fmt.str "%s at capacity (%d queued)"
                            (match f.role with Serve -> "queue" | Router -> "router queue")
                            (Chan.length f.chan)))
                | `Rejected `Closed ->
                    a.undo ();
                    f.draining <- f.draining + 1;
                    incr f "draining";
                    Some
                      (rejected `Draining
                         (match f.role with
                         | Serve -> "server is shutting down"
                         | Router -> "router is shutting down")))))
  in
  Option.iter (send f respond) answer

let complete f ~trace_id ~job ~outcome ~counter ~latency_s =
  let now = Clock.now_s () in
  f.completed <- f.completed + 1;
  Sink.incr f.obs counter;
  Window.incr f.window ~now "completed";
  Window.observe f.window ~now "latency_s" ~bounds:latency_bounds latency_s;
  if Sink.enabled f.obs then
    Sink.observe f.obs (f.prefix ^ "/latency_s") ~bounds:latency_bounds latency_s;
  record f ~trace_id ~job (Trace.Respond { outcome })

let drop f ~trace_id ~job ~tag =
  f.dropped <- f.dropped + 1;
  incr f "dropped";
  record f ~trace_id ~job (Trace.Respond { outcome = "dropped" });
  Codec.dropped_line ~id:job ~tag

type counts = {
  requests : int;
  accepted : int;
  completed : int;
  queue_full : int;
  malformed : int;
  draining : int;
  health : int;
  stats : int;
  dropped : int;
  respond_errors : int;
}

let counts (f : _ t) =
  {
    requests = f.next_id;
    accepted = f.accepted;
    completed = f.completed;
    queue_full = f.queue_full;
    malformed = f.malformed;
    draining = f.draining;
    health = f.health;
    stats = f.stats;
    dropped = f.dropped;
    respond_errors = Atomic.get f.respond_errors;
  }
