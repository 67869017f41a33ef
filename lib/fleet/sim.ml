(* An in-process fleet backend: a real {!Agrid_serve.Server} bridged to
   the router through one end of a socketpair, so the router exercises
   its genuine socket paths (reads, writes, EOF, shutdown) without any
   child processes. This is what the unit tests, the bench fleet section
   and the fault-injection soak use as backends.

   Each accepted connect is an {e incarnation}: a fresh socketpair, a
   fresh server, a pump thread feeding lines to it. Fault injection:
   - [kill] closes the socket abruptly (the router sees EOF with whatever
     was in flight) and hard-stops the server in the background;
   - [wedge] freezes the pump and the response path without closing
     anything — the socket stays open but nothing flows, exactly the
     failure probe timeouts exist to catch;
   - [refuse_connects] makes subsequent connects raise ECONNREFUSED, so
     reconnect backoff can be observed.

   [wedged]/[refuse] are atomics because server worker domains read them
   from the response path. The optional sink is handed to every
   incarnation's server; incarnations of one backend never run servers
   concurrently in the deterministic setups that record telemetry (bench:
   no kills at all), which keeps the sink's single-writer discipline.

   A dead incarnation's fd number must never be written or read again:
   the next connect's socketpair may already hold that number, and a late
   response flushed into it would reach a router that never asked. So
   [reap] only marks the incarnation dead and shuts its socket down, the
   shutdown under the incarnation's output lock; responders write only
   while it is alive, checked under the same lock; and the fd is closed
   by the pump — its one reader — once it has stopped reading and the
   server has stopped. *)

module Sink = Agrid_obs.Sink
module Server = Agrid_serve.Server

type incarnation = {
  i_server : Server.t;
  i_fd : Unix.file_descr;  (* the sim's end of the socketpair *)
  i_out : Mutex.t;  (* orders every response write against the reap *)
  i_dead : bool Atomic.t;  (* whoever flips this (under [lock]) reaps *)
}

type t = {
  name : string;
  workers : int;
  queue_capacity : int;
  tenant_caps : (string * int) list;
  obs : Sink.t;
  refuse : bool Atomic.t;
  wedged : bool Atomic.t;
  mutable cur : incarnation option;
  mutable incarnations : int;
  (* per-tenant admission high-water, folded over dead incarnations so
     the soak can pin [tenant_high_water <= cap] across kills *)
  mutable tenant_hwm : (string * int) list;
  mutable live : incarnation list;  (* pumps not finished, newest first *)
  finished : Condition.t;  (* signalled (under [lock]) as [live] shrinks *)
  lock : Mutex.t;
}

let with_lock = Agrid_serve.Front.with_lock

let create ?(obs = Sink.noop) ?(workers = 2) ?(queue_capacity = 16)
    ?(tenant_caps = []) name =
  {
    name;
    workers;
    queue_capacity;
    tenant_caps;
    obs;
    refuse = Atomic.make false;
    wedged = Atomic.make false;
    cur = None;
    incarnations = 0;
    tenant_hwm = List.map (fun (name, _) -> (name, 0)) tenant_caps;
    live = [];
    finished = Condition.create ();
    lock = Mutex.create ();
  }

(* Claim the incarnation's death (first claimant wins): shut its socket
   down, so the router sees EOF and the pump's read returns, and let the
   pump stop the server and close the fd. Every exit path funnels through
   here. *)
let reap t inc =
  let mine =
    with_lock t.lock (fun () ->
        if Atomic.get inc.i_dead then false
        else begin
          Atomic.set inc.i_dead true;
          (match t.cur with
          | Some c when c == inc -> t.cur <- None
          | _ -> ());
          true
        end)
  in
  if mine then begin
    with_lock t.lock (fun () ->
        t.tenant_hwm <-
          List.map
            (fun (name, hwm) ->
              (name, max hwm (Server.tenant_high_water inc.i_server name)))
            t.tenant_hwm);
    with_lock inc.i_out (fun () ->
        try Unix.shutdown inc.i_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  end

(* Block while wedged; a dead incarnation stops waiting, so its server can
   stop even if the wedge is never lifted. *)
let await_unwedged t inc =
  while Atomic.get t.wedged && not (Atomic.get inc.i_dead) do
    Thread.delay 0.005
  done

let pump t inc () =
  let ic = Unix.in_channel_of_descr inc.i_fd in
  (* One out_channel for the incarnation's lifetime — a fresh channel per
     response would interleave buffers. *)
  let oc = Unix.out_channel_of_descr inc.i_fd in
  let respond line =
    (* a wedged backend's responses stall too — workers block here until
       the wedge lifts, then write only if the incarnation still lives
       (a broken pipe, when the router already gave up, is swallowed) *)
    await_unwedged t inc;
    with_lock inc.i_out (fun () ->
        if not (Atomic.get inc.i_dead) then
          try
            output_string oc line;
            output_char oc '\n';
            flush oc
          with Sys_error _ -> ())
  in
  let rec loop () =
    await_unwedged t inc;
    if not (Atomic.get inc.i_dead) then
      match input_line ic with
      | line ->
          Server.submit inc.i_server ~respond line;
          loop ()
      | exception (End_of_file | Sys_error _) -> ()
  in
  loop ();
  reap t inc;
  ignore (Server.stop inc.i_server);
  with_lock inc.i_out (fun () -> try Unix.close inc.i_fd with Unix.Unix_error _ -> ());
  with_lock t.lock (fun () ->
      t.live <- List.filter (fun i -> i != inc) t.live;
      Condition.broadcast t.finished)

let connect t =
  with_lock t.lock (fun () ->
      if Atomic.get t.refuse then
        raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", t.name)));
  let router_fd, sim_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server =
    Server.create ~obs:t.obs ~workers:t.workers
      ~queue_capacity:t.queue_capacity ~tenant_caps:t.tenant_caps ()
  in
  Server.start server;
  let inc =
    { i_server = server; i_fd = sim_fd; i_out = Mutex.create (); i_dead = Atomic.make false }
  in
  with_lock t.lock (fun () ->
      t.cur <- Some inc;
      t.live <- inc :: t.live;
      t.incarnations <- t.incarnations + 1);
  ignore (Thread.create (pump t inc) ());
  router_fd

let spec t = { Router.name = t.name; connect = (fun () -> connect t) }

let kill t =
  match with_lock t.lock (fun () -> t.cur) with
  | None -> ()
  | Some inc -> reap t inc

(* Reap every incarnation whose pump still runs — the current one and
   any the router abandoned by reconnecting — then wait until each has
   stopped its server and closed its fd. *)
let shutdown t =
  let incs = with_lock t.lock (fun () -> t.live) in
  List.iter (reap t) incs;
  with_lock t.lock (fun () ->
      while List.exists (fun i -> List.memq i t.live) incs do
        Condition.wait t.finished t.lock
      done)

let wedge t = Atomic.set t.wedged true
let unwedge t = Atomic.set t.wedged false
let refuse_connects t v = Atomic.set t.refuse v
let incarnations t = with_lock t.lock (fun () -> t.incarnations)

let tenant_high_water t name =
  with_lock t.lock (fun () ->
      let dead = try List.assoc name t.tenant_hwm with Not_found -> 0 in
      match t.cur with
      | Some inc -> max dead (Server.tenant_high_water inc.i_server name)
      | None -> dead)

let name t = t.name
