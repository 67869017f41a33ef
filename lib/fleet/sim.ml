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
   no kills at all), which keeps the sink's single-writer discipline. *)

module Sink = Agrid_obs.Sink
module Server = Agrid_serve.Server

type incarnation = {
  i_server : Server.t;
  i_fd : Unix.file_descr;  (* the sim's end of the socketpair *)
  mutable i_dead : bool;  (* whoever flips this (under [lock]) cleans up *)
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
    lock = Mutex.create ();
  }

(* Claim the incarnation's cleanup (first claimant wins): close its fd and
   stop its server. Every exit path funnels through here. *)
let reap t inc ~stop_in_background =
  let mine =
    with_lock t.lock (fun () ->
        if inc.i_dead then false
        else begin
          inc.i_dead <- true;
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
    (try Unix.shutdown inc.i_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close inc.i_fd with Unix.Unix_error _ -> ());
    let stop () = ignore (Server.stop inc.i_server) in
    if stop_in_background then ignore (Thread.create stop ()) else stop ()
  end

let pump t inc () =
  let ic = Unix.in_channel_of_descr inc.i_fd in
  (* One out_channel for the incarnation's lifetime — a fresh channel per
     response would interleave buffers. *)
  let oc = Unix.out_channel_of_descr inc.i_fd in
  let out_lock = Mutex.create () in
  let respond line =
    (* a wedged backend's responses stall too — workers block here until
       the wedge lifts, then hit a (swallowed) broken pipe if the router
       already gave up on us *)
    while Atomic.get t.wedged do
      Thread.delay 0.005
    done;
    with_lock out_lock (fun () ->
        try
          output_string oc line;
          output_char oc '\n';
          flush oc
        with Sys_error _ -> ())
  in
  let rec loop () =
    while Atomic.get t.wedged do
      Thread.delay 0.005
    done;
    match input_line ic with
    | line ->
        Server.submit inc.i_server ~respond line;
        loop ()
    | exception (End_of_file | Sys_error _) -> ()
  in
  loop ();
  reap t inc ~stop_in_background:false

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
  let inc = { i_server = server; i_fd = sim_fd; i_dead = false } in
  with_lock t.lock (fun () ->
      t.cur <- Some inc;
      t.incarnations <- t.incarnations + 1);
  ignore (Thread.create (pump t inc) ());
  router_fd

let spec t = { Router.name = t.name; connect = (fun () -> connect t) }

let kill t =
  match with_lock t.lock (fun () -> t.cur) with
  | None -> ()
  | Some inc -> reap t inc ~stop_in_background:true

let shutdown t =
  match with_lock t.lock (fun () -> t.cur) with
  | None -> ()
  | Some inc -> reap t inc ~stop_in_background:false

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
