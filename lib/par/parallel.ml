(* Fork-join data parallelism on OCaml 5 domains, hand-rolled because
   domainslib is not available in this environment.

   The model is deliberately simple: each [map]/[iter] call spawns up to
   [domains - 1] worker domains that pull indices from a shared atomic
   counter (dynamic scheduling — scenario runtimes vary by an order of
   magnitude, so static chunking would leave domains idle), does a share of
   the work on the calling domain too, then joins everything. Domain spawn
   costs microseconds; the work items here are milliseconds to seconds.

   Telemetry ([?obs]) is recorded on the calling domain only — before the
   spawn and after the join — so the sink needs no synchronisation and the
   workers never observe it. *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

(* First exception raised by any worker, re-raised after all domains have
   been joined so no domain is leaked. *)
exception Worker_failure of exn

let run_workers ~domains ~n work =
  if domains < 1 then
    invalid_arg
      (Printf.sprintf "Parallel.run_workers: domains must be >= 1 (got %d)" domains);
  if n < 0 then
    invalid_arg (Printf.sprintf "Parallel.run_workers: negative item count %d" n);
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker () =
    let rec loop () =
      if Atomic.get failure = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try work i
           with e -> ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      end
    in
    loop ()
  in
  let spawned =
    List.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  match Atomic.get failure with None -> () | Some e -> raise (Worker_failure e)

let note_fanout obs ~n ~domains =
  if Agrid_obs.Sink.enabled obs then begin
    Agrid_obs.Sink.add obs "par/items" n;
    Agrid_obs.Sink.incr obs "par/calls";
    Agrid_obs.Sink.max_gauge obs "par/domains" (float_of_int domains)
  end

let map ?(obs = Agrid_obs.Sink.noop) ?domains f arr =
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let n = Array.length arr in
  if n = 0 then [||]
  else if domains = 1 || n = 1 then begin
    note_fanout obs ~n ~domains:1;
    Agrid_obs.Sink.span obs "par/map" (fun () -> Array.map f arr)
  end
  else begin
    note_fanout obs ~n ~domains;
    Agrid_obs.Sink.span obs "par/map" (fun () ->
        let out = Array.make n None in
        run_workers ~domains ~n (fun i -> out.(i) <- Some (f arr.(i)));
        Array.map
          (function Some v -> v | None -> assert false (* every index was processed *))
          out)
  end

let mapi ?obs ?domains f arr =
  let indexed = Array.mapi (fun i x -> (i, x)) arr in
  map ?obs ?domains (fun (i, x) -> f i x) indexed

let iter ?obs ?domains f arr = ignore (map ?obs ?domains (fun x -> f x; ()) arr)

let init ?obs ?domains n f = map ?obs ?domains f (Array.init n Fun.id)

(* ---- bounded blocking channel ----

   The hand-off between a producer (the scenario service's admission path)
   and a persistent pool of consumer domains. Deliberately minimal: one
   mutex, one condition (signalled on push, seal and close — consumers are
   the only waiters; producers never block, they are *rejected* when the
   buffer is full, which is the whole point of bounded admission).

   Lifecycle: open -> sealed (no more pushes; consumers drain what is
   buffered, then see [None]) or closed (buffered items are returned to
   the closer — the service reports them as dropped — and consumers see
   [None] immediately).

   Timed waits. Stdlib [Condition] has no timed wait, so [try_pop] parks
   in [Unix.select] on a self-pipe instead: it registers as a waiter under
   the lock, unlocks, selects with its remaining time, then relocks,
   drains the pipe and rechecks. Push, seal and close write one byte
   whenever a waiter is registered, so a push that lands between the
   unlock and the select leaves the pipe readable and is never missed.
   The pipe is created by the first [try_pop] that has to wait (channels
   that are only [pop]ped never get one) and released once the channel
   stops being open and no waiter is parked — after that no [try_pop]
   waits again. A waiter that leaves with work still visible passes the
   wake on, so concurrent waiters cannot strand an item. *)

module Chan = struct
  type wake = { rd : Unix.file_descr; wr : Unix.file_descr }

  type 'a t = {
    buf : 'a Queue.t;
    capacity : int;
    mutable state : [ `Open | `Sealed | `Closed ];
    mutable high_water : int;
    lock : Mutex.t;
    nonempty : Condition.t;
    mutable wake : wake option;  (** self-pipe, created lazily by [try_pop] *)
    mutable waiters : int;  (** [try_pop] callers parked on the pipe *)
  }

  let create ~capacity =
    if capacity < 1 then
      invalid_arg
        (Printf.sprintf "Parallel.Chan.create: capacity must be >= 1 (got %d)"
           capacity);
    {
      buf = Queue.create ();
      capacity;
      state = `Open;
      high_water = 0;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      wake = None;
      waiters = 0;
    }

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* The helpers below run under the lock. *)

  (* Wake the parked waiters. A full pipe is already readable, so EAGAIN
     loses nothing. *)
  let ring t =
    match t.wake with
    | Some w when t.waiters > 0 -> (
        try ignore (Unix.single_write_substring w.wr "x" 0 1)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
    | _ -> ()

  (* Close the pipe once no waiter can use it again. *)
  let release t =
    match t.wake with
    | Some w when t.state <> `Open && t.waiters = 0 ->
        t.wake <- None;
        Unix.close w.rd;
        Unix.close w.wr
    | _ -> ()

  let drain w =
    let scratch = Bytes.create 64 in
    let rec go () =
      match Unix.read w.rd scratch 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    in
    go ()

  let wake_pipe t =
    match t.wake with
    | Some w -> w
    | None ->
        let rd, wr = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock rd;
        Unix.set_nonblock wr;
        let w = { rd; wr } in
        t.wake <- Some w;
        w

  (* Wait up to [timeout_s] for a [ring], with the lock released; returns
     with it held again. *)
  let park t ~timeout_s =
    let w = wake_pipe t in
    t.waiters <- t.waiters + 1;
    Mutex.unlock t.lock;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.lock;
        drain w;
        t.waiters <- t.waiters - 1;
        release t)
      (fun () ->
        match Unix.select [ w.rd ] [] [] timeout_s with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

  let try_push t x =
    with_lock t (fun () ->
        match t.state with
        | `Sealed | `Closed -> `Rejected `Closed
        | `Open ->
            if Queue.length t.buf >= t.capacity then `Rejected `Full
            else begin
              Queue.push x t.buf;
              let depth = Queue.length t.buf in
              if depth > t.high_water then t.high_water <- depth;
              Condition.signal t.nonempty;
              ring t;
              `Accepted depth
            end)

  let pop t =
    with_lock t (fun () ->
        let rec wait () =
          match Queue.take_opt t.buf with
          | Some x -> Some x
          | None -> (
              match t.state with
              | `Sealed | `Closed -> None
              | `Open ->
                  Condition.wait t.nonempty t.lock;
                  wait ())
        in
        wait ())

  let try_pop t ~timeout_s =
    let deadline = Agrid_obs.Clock.now_s () +. timeout_s in
    with_lock t (fun () ->
        let rec attempt () =
          match Queue.take_opt t.buf with
          | Some x ->
              if not (Queue.is_empty t.buf && t.state = `Open) then ring t;
              `Popped x
          | None -> (
              match t.state with
              | `Sealed | `Closed ->
                  ring t;
                  `Closed
              | `Open ->
                  let remaining = deadline -. Agrid_obs.Clock.now_s () in
                  if remaining <= 0. then `Timeout
                  else begin
                    park t ~timeout_s:remaining;
                    attempt ()
                  end)
        in
        attempt ())

  let seal t =
    with_lock t (fun () ->
        if t.state = `Open then t.state <- `Sealed;
        Condition.broadcast t.nonempty;
        ring t;
        release t)

  let close t =
    with_lock t (fun () ->
        if t.state <> `Closed then t.state <- `Closed;
        let dropped = List.of_seq (Queue.to_seq t.buf) in
        Queue.clear t.buf;
        Condition.broadcast t.nonempty;
        ring t;
        release t;
        dropped)

  let length t = with_lock t (fun () -> Queue.length t.buf)
  let high_water t = with_lock t (fun () -> t.high_water)
end
