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

(* Map then sequential fold — the reduce is cheap in every use here
   (summaries over a few hundred results). *)
let map_reduce ?obs ?domains ~map:f ~fold ~init:acc0 arr =
  Array.fold_left fold acc0 (map ?obs ?domains f arr)

(* ---- bounded blocking channel ----

   The hand-off between a producer (the scenario service's admission path)
   and a persistent pool of consumer domains. Deliberately minimal: one
   mutex, one condition (signalled on push, seal and close — consumers are
   the only waiters; producers never block, they are *rejected* when the
   buffer is full, which is the whole point of bounded admission).

   Lifecycle: open -> sealed (no more pushes; consumers drain what is
   buffered, then see [None]) or closed (buffered items are returned to
   the closer — the service reports them as dropped — and consumers see
   [None] immediately). *)

module Chan = struct
  type 'a t = {
    buf : 'a Queue.t;
    capacity : int;
    mutable state : [ `Open | `Sealed | `Closed ];
    mutable high_water : int;
    lock : Mutex.t;
    nonempty : Condition.t;
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
    }

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

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

  (* Bounded wait. Stdlib [Condition] has no timed wait, so this polls:
     check under the lock, sleep up to 1 ms, repeat until the deadline.
     The millisecond resolution is fine for its callers (the fleet
     router's dispatcher and probe loops, which tick at tens of
     milliseconds) and keeps the channel free of any platform-specific
     timed-wait dependency. *)
  let try_pop t ~timeout_s =
    let deadline = Agrid_obs.Clock.now_s () +. timeout_s in
    let rec attempt () =
      let status =
        with_lock t (fun () ->
            match Queue.take_opt t.buf with
            | Some x -> `Popped x
            | None -> (
                match t.state with `Sealed | `Closed -> `Closed | `Open -> `Empty))
      in
      match status with
      | (`Popped _ | `Closed) as r -> r
      | `Empty ->
          let remaining = deadline -. Agrid_obs.Clock.now_s () in
          if remaining <= 0. then `Timeout
          else begin
            Unix.sleepf (Float.min remaining 0.001);
            attempt ()
          end
    in
    attempt ()

  let seal t =
    with_lock t (fun () ->
        if t.state = `Open then t.state <- `Sealed;
        Condition.broadcast t.nonempty)

  let close t =
    with_lock t (fun () ->
        if t.state <> `Closed then t.state <- `Closed;
        let dropped = List.of_seq (Queue.to_seq t.buf) in
        Queue.clear t.buf;
        Condition.broadcast t.nonempty;
        dropped)

  let length t = with_lock t (fun () -> Queue.length t.buf)
  let high_water t = with_lock t (fun () -> t.high_water)
  let is_open t = with_lock t (fun () -> t.state = `Open)
end
