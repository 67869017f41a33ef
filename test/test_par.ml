open Agrid_par

let test_map_matches_sequential () =
  let arr = Array.init 1000 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "parallel = sequential" (Array.map f arr)
    (Parallel.map ~domains:4 f arr)

let test_map_preserves_order () =
  let arr = Array.init 500 (fun i -> 500 - i) in
  let out = Parallel.map ~domains:3 string_of_int arr in
  Array.iteri
    (fun i s -> Alcotest.(check string) "slot" (string_of_int arr.(i)) s)
    out

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map (fun x -> x) [||])

let test_map_single_domain () =
  let arr = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "domains=1" (Array.map succ arr)
    (Parallel.map ~domains:1 succ arr)

let test_mapi () =
  let arr = [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "mapi" [| 10; 21; 32 |]
    (Parallel.mapi ~domains:2 (fun i x -> x + i) arr)

let test_init () =
  Alcotest.(check (array int)) "init" (Array.init 50 (fun i -> 2 * i))
    (Parallel.init ~domains:3 50 (fun i -> 2 * i))

let test_iter_visits_all () =
  let n = 200 in
  let seen = Array.make n (Atomic.make false) in
  for i = 0 to n - 1 do
    seen.(i) <- Atomic.make false
  done;
  Parallel.iter ~domains:4 (fun i -> Atomic.set seen.(i) true) (Array.init n Fun.id);
  Array.iteri
    (fun i a -> Alcotest.(check bool) (Fmt.str "visited %d" i) true (Atomic.get a))
    seen

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Parallel.map ~domains:3
           (fun x -> if x = 37 then failwith "boom" else x)
           (Array.init 100 Fun.id));
      false
    with Parallel.Worker_failure (Failure msg) -> msg = "boom"
  in
  Alcotest.(check bool) "worker failure surfaced" true raised

let test_heavier_work () =
  (* results independent of scheduling interleave *)
  let arr = Array.init 64 (fun i -> i) in
  let f x =
    let acc = ref 0 in
    for k = 1 to 10_000 do
      acc := (!acc + (x * k)) mod 65521
    done;
    !acc
  in
  Alcotest.(check (array int)) "heavy map deterministic" (Array.map f arr)
    (Parallel.map f arr)

let test_run_workers_zero_items () =
  (* n = 0 is a no-op: no domains spawned, the work function never runs *)
  let hits = Atomic.make 0 in
  Parallel.run_workers ~domains:4 ~n:0 (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "no items processed" 0 (Atomic.get hits)

let test_run_workers_bad_domains () =
  (* domains < 1 used to be clamped silently; it is now a contract error *)
  let reject d =
    match Parallel.run_workers ~domains:d ~n:3 (fun _ -> ()) with
    | () -> Alcotest.failf "domains = %d accepted" d
    | exception Invalid_argument _ -> ()
  in
  reject 0;
  reject (-2);
  match Parallel.run_workers ~domains:4 ~n:(-1) (fun _ -> ()) with
  | () -> Alcotest.fail "negative n accepted"
  | exception Invalid_argument _ -> ()

(* ---- Chan.try_pop: the bounded wait the fleet dispatcher relies on ---- *)

let test_try_pop_pops () =
  let c = Parallel.Chan.create ~capacity:4 in
  (match Parallel.Chan.try_push c 42 with
  | `Accepted _ -> ()
  | `Rejected _ -> Alcotest.fail "push rejected on an empty open channel");
  match Parallel.Chan.try_pop c ~timeout_s:0.5 with
  | `Popped v -> Alcotest.(check int) "item" 42 v
  | `Timeout -> Alcotest.fail "timed out with an item buffered"
  | `Closed -> Alcotest.fail "closed on an open channel"

let test_try_pop_times_out () =
  let c : int Parallel.Chan.t = Parallel.Chan.create ~capacity:4 in
  let t0 = Unix.gettimeofday () in
  (match Parallel.Chan.try_pop c ~timeout_s:0.05 with
  | `Timeout -> ()
  | `Popped _ -> Alcotest.fail "popped from an empty channel"
  | `Closed -> Alcotest.fail "closed on an open channel");
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "waited at least ~the timeout" true (waited >= 0.04);
  (* nonpositive timeout checks once, without waiting *)
  match Parallel.Chan.try_pop c ~timeout_s:0. with
  | `Timeout -> ()
  | _ -> Alcotest.fail "zero timeout should report `Timeout when empty"

let test_try_pop_sealed_drains_then_closes () =
  let c = Parallel.Chan.create ~capacity:4 in
  ignore (Parallel.Chan.try_push c 1);
  ignore (Parallel.Chan.try_push c 2);
  Parallel.Chan.seal c;
  (* buffered items stay poppable after a seal... *)
  (match Parallel.Chan.try_pop c ~timeout_s:0.1 with
  | `Popped v -> Alcotest.(check int) "first" 1 v
  | _ -> Alcotest.fail "sealed channel lost its buffer");
  (match Parallel.Chan.try_pop c ~timeout_s:0.1 with
  | `Popped v -> Alcotest.(check int) "second" 2 v
  | _ -> Alcotest.fail "sealed channel lost its buffer");
  (* ...then the drained seal reports `Closed immediately, not `Timeout *)
  let t0 = Unix.gettimeofday () in
  (match Parallel.Chan.try_pop c ~timeout_s:5.0 with
  | `Closed -> ()
  | `Timeout -> Alcotest.fail "drained sealed channel should be `Closed"
  | `Popped _ -> Alcotest.fail "popped from a drained channel");
  Alcotest.(check bool) "no wait on a drained seal" true
    (Unix.gettimeofday () -. t0 < 1.0)

let test_try_pop_closed () =
  let c = Parallel.Chan.create ~capacity:4 in
  ignore (Parallel.Chan.try_push c 7);
  let dropped = Parallel.Chan.close c in
  Alcotest.(check (list int)) "close returns the buffer" [ 7 ] dropped;
  match Parallel.Chan.try_pop c ~timeout_s:0.1 with
  | `Closed -> ()
  | _ -> Alcotest.fail "closed channel must report `Closed"

let test_try_pop_wakes_on_push () =
  let c = Parallel.Chan.create ~capacity:4 in
  let pusher =
    Thread.create
      (fun () ->
        Thread.delay 0.03;
        ignore (Parallel.Chan.try_push c 99))
      ()
  in
  (match Parallel.Chan.try_pop c ~timeout_s:2.0 with
  | `Popped v -> Alcotest.(check int) "item" 99 v
  | `Timeout -> Alcotest.fail "missed an item pushed within the timeout"
  | `Closed -> Alcotest.fail "closed on an open channel");
  Thread.join pusher

(* ---- Chan.try_pop: event-driven wake and descriptor hygiene ---- *)

let test_try_pop_wake_latency () =
  (* 500 round trips = 1000 waits that a push ends. A polling wait pays at
     least one sleep quantum (>= 1 ms) per hop, i.e. >= 0.5 s in total. *)
  let n = 500 in
  let ping = Parallel.Chan.create ~capacity:1 in
  let pong = Parallel.Chan.create ~capacity:1 in
  let pop_or_fail c =
    match Parallel.Chan.try_pop c ~timeout_s:1.0 with
    | `Popped v -> v
    | `Timeout -> Alcotest.fail "try_pop timed out with a push pending"
    | `Closed -> Alcotest.fail "closed on an open channel"
  in
  let echo =
    Thread.create
      (fun () ->
        for _ = 1 to n do
          ignore (Parallel.Chan.try_push pong (pop_or_fail ping))
        done)
      ()
  in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    ignore (Parallel.Chan.try_push ping i);
    Alcotest.(check int) "echoed" i (pop_or_fail pong)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Thread.join echo;
  if elapsed >= 0.25 then
    Alcotest.failf "%d ping-pong round trips took %.3f s (limit 0.25 s)" n elapsed

(* Open descriptors of this process, or None where /proc is absent. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_try_pop_releases_pipe () =
  match open_fds () with
  | None -> Alcotest.skip ()
  | Some before ->
      (* every cycle makes the channel create its pipe; even cycles end in
         close, odd ones in seal, the router's drain path *)
      for i = 1 to 2000 do
        let c : int Parallel.Chan.t = Parallel.Chan.create ~capacity:1 in
        (match Parallel.Chan.try_pop c ~timeout_s:0.001 with
        | `Timeout -> ()
        | _ -> Alcotest.fail "empty open channel should time out");
        if i mod 2 = 0 then ignore (Parallel.Chan.close c) else Parallel.Chan.seal c
      done;
      Alcotest.(check (option int)) "open descriptors" (Some before) (open_fds ())

let test_try_pop_close_while_parked () =
  let before = open_fds () in
  for round = 1 to 20 do
    let c : int Parallel.Chan.t = Parallel.Chan.create ~capacity:1 in
    let outcome = ref "none" in
    let waiter =
      Thread.create
        (fun () ->
          outcome :=
            match Parallel.Chan.try_pop c ~timeout_s:5.0 with
            | `Closed -> "closed"
            | `Timeout -> "timeout"
            | `Popped _ -> "popped"
            | exception Unix.Unix_error (err, fn, _) ->
                Fmt.str "%s: %s" fn (Unix.error_message err))
        ()
    in
    (* vary how far the waiter got before the close lands *)
    Thread.delay (float_of_int (round mod 4) *. 0.005);
    let t0 = Unix.gettimeofday () in
    ignore (Parallel.Chan.close c);
    Thread.join waiter;
    Alcotest.(check string) (Fmt.str "round %d outcome" round) "closed" !outcome;
    Alcotest.(check bool)
      (Fmt.str "round %d woke promptly" round)
      true
      (Unix.gettimeofday () -. t0 < 1.0)
  done;
  Alcotest.(check (option int)) "open descriptors" before (open_fds ())

let suites =
  [
    ( "par",
      [
        Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
        Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "map empty" `Quick test_map_empty;
        Alcotest.test_case "single domain" `Quick test_map_single_domain;
        Alcotest.test_case "mapi" `Quick test_mapi;
        Alcotest.test_case "init" `Quick test_init;
        Alcotest.test_case "iter visits all" `Quick test_iter_visits_all;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "heavy work deterministic" `Quick test_heavier_work;
        Alcotest.test_case "run_workers with zero items" `Quick
          test_run_workers_zero_items;
        Alcotest.test_case "run_workers rejects bad bounds" `Quick
          test_run_workers_bad_domains;
        Alcotest.test_case "try_pop pops a buffered item" `Quick test_try_pop_pops;
        Alcotest.test_case "try_pop times out" `Quick test_try_pop_times_out;
        Alcotest.test_case "try_pop on sealed channel" `Quick
          test_try_pop_sealed_drains_then_closes;
        Alcotest.test_case "try_pop on closed channel" `Quick test_try_pop_closed;
        Alcotest.test_case "try_pop wakes on push" `Quick test_try_pop_wakes_on_push;
        Alcotest.test_case "try_pop wake latency" `Quick test_try_pop_wake_latency;
        Alcotest.test_case "try_pop releases its pipe" `Quick test_try_pop_releases_pipe;
        Alcotest.test_case "try_pop survives a close while parked" `Quick
          test_try_pop_close_while_parked;
      ] );
  ]
