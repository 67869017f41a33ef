(* Child-process daemons and the load loops that drive them: one sender
   (the caller's thread) and one reader thread per run. *)

module Json = Agrid_obs.Json

exception Failed of string

let fail fmt = Fmt.kstr (fun m -> raise (Failed m)) fmt

(* Monotonic seconds since this process started. *)
let epoch = Agrid_obs.Clock.monotonic_ns ()
let now () = Int64.to_float (Int64.sub (Agrid_obs.Clock.monotonic_ns ()) epoch) /. 1e9

(* ---- child processes ---------------------------------------------------- *)

(* Every child started and not yet reaped; killed and reaped at exit,
   whichever way the exit happens. *)
let live = ref []

let reap ?(timeout = 10.) pid =
  let deadline = now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap ~timeout:2. pid)
    !live

let () = at_exit kill_all

type child = {
  pid : int;
  err_path : string;
  drain : Thread.t option;  (** copies the child's stderr pipe to [err_path] *)
}

let open_err err_path =
  Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

let spawn ~agrid ~err_path ~stdin ?stdout args =
  let err = open_err err_path in
  let stdout = Option.value stdout ~default:err in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close err)
      (fun () -> Unix.create_process agrid (Array.of_list (agrid :: args)) stdin stdout err)
  in
  live := pid :: !live;
  { pid; err_path; drain = None }

(* A child whose stdout and stderr go to a pipe: returns once it wrote its
   first line there (or fails), and a thread copies that line and the
   rest to [err_path]. Reading the line wakes the harness the moment the
   child writes it, where polling for its effect would add a sleep. *)
let spawn_announcing ~agrid ~err_path ~stdin ~timeout args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () -> Unix.create_process agrid (Array.of_list (agrid :: args)) stdin w w)
  in
  live := pid :: !live;
  let ic = Unix.in_channel_of_descr r in
  let first =
    match Unix.select [ r ] [] [] timeout with
    | [], _, _ -> None
    | _ -> ( try Some (input_line ic) with End_of_file | Sys_error _ -> None)
  in
  let copy () =
    let oc = Unix.out_channel_of_descr (open_err err_path) in
    let rec loop line =
      output_string oc line;
      output_char oc '\n';
      match input_line ic with l -> loop l | exception (End_of_file | Sys_error _) -> ()
    in
    Option.iter loop first;
    close_out oc;
    close_in ic
  in
  ({ pid; err_path; drain = Some (Thread.create copy ()) }, first)

(* The daemon the harness talks to over pipes: [agrid serve] on stdio, or
   the fleet's [agrid router]. *)
type front = { child : child; oc : out_channel; ic : in_channel }

let spawn_front ~agrid ~err_path args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let child = spawn ~agrid ~err_path ~stdin:in_r ~stdout:out_w args in
  Unix.close in_r;
  Unix.close out_w;
  { child; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r }

let send front line =
  try
    output_string front.oc line;
    output_char front.oc '\n';
    flush front.oc
  with Sys_error msg -> fail "write to daemon %d: %s" front.child.pid msg

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vmhwm_kb pid =
  match open_in (Fmt.str "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

type daemons = {
  front : front;
  backends : child list;  (** socket-mode serve daemons behind a router *)
}

let pids d = d.front.child.pid :: List.map (fun c -> c.pid) d.backends
let peak_rss_kb d = List.fold_left (fun acc pid -> acc + vmhwm_kb pid) 0 (pids d)

(* Seconds of CPU time every thread of a live process has run so far: the
   first field of /proc/PID/task/TID/schedstat, in ns. CPU time the
   hypervisor stole from a thread is not part of it. *)
let cpu_s pid =
  let task = Fmt.str "/proc/%d/task" pid in
  let thread_ns tid =
    match open_in (Filename.concat (Filename.concat task tid) "schedstat") with
    | exception Sys_error _ -> 0
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> try Scanf.sscanf (input_line ic) "%d" Fun.id with _ -> 0)
  in
  match Sys.readdir task with
  | exception Sys_error _ -> 0.
  | tids -> float_of_int (Array.fold_left (fun acc tid -> acc + thread_ns tid) 0 tids) /. 1e9

let daemons_cpu_s d = List.fold_left (fun acc pid -> acc +. cpu_s pid) 0. (pids d)

(* Graceful stop: EOF on the front daemon's stdin drains and ends it, and
   SIGTERM ends the backends once the router has hung up. *)
let stop d =
  (try close_out d.front.oc with Sys_error _ -> ());
  reap d.front.child.pid;
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap c.pid;
      Option.iter Thread.join c.drain)
    d.backends;
  try close_in d.front.ic with Sys_error _ -> ()

let read_health front =
  match input_line front.ic with
  | exception (End_of_file | Sys_error _) ->
      fail "daemon %d exited before answering health (see %s)" front.child.pid
        front.child.err_path
  | line -> (
      match Json.parse_opt line with
      | Some j when Json.get_string "type" j = Some "health" -> j
      | _ -> fail "unexpected answer to health: %s" line)

let wait_until ~timeout what ready =
  let deadline = now () +. timeout in
  while not (ready ()) do
    if now () > deadline then fail "timed out waiting for %s" what;
    Thread.delay 0.001
  done

(* [agrid serve] on stdio; returns once it answered a health request. *)
let start_serve ~agrid ~dir ~workers ~queue =
  let front =
    spawn_front ~agrid ~err_path:(Filename.concat dir "serve.err")
      [ "serve"; "--workers"; string_of_int workers; "--queue"; string_of_int queue ]
  in
  send front Gen.health_line;
  ignore (read_health front);
  { front; backends = [] }

let all_healthy j =
  match Option.bind (Json.member "backends" j) Json.to_list with
  | None | Some [] -> false
  | Some bs -> List.for_all (fun b -> Json.get_string "health" b = Some "healthy") bs

(* [agrid router] on stdio over [n] socket-mode [agrid serve --workers 1]
   backends; returns once the router reports every backend healthy. A
   backend announces on stderr that its socket listens, and the router
   starts once every backend did. *)
let start_fleet ~agrid ~dir ~n ~queue =
  let socks = List.init n (fun k -> Filename.concat dir (Fmt.str "b%d.sock" k)) in
  List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) socks;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let started =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        List.mapi
          (fun k sock ->
            spawn_announcing ~agrid
              ~err_path:(Filename.concat dir (Fmt.str "b%d.err" k))
              ~stdin:devnull ~timeout:20.
              [ "serve"; "--workers"; "1"; "--queue"; string_of_int queue; "--socket"; sock ])
          socks)
  in
  let backends = List.map fst started in
  (* on failure the exit handler kills the backends *)
  List.iter2
    (fun (c, first) sock ->
      match first with
      | Some _ when Sys.file_exists sock -> ()
      | Some line -> fail "backend %d: %s" c.pid line
      | None -> fail "backend %d never listened (see %s)" c.pid c.err_path)
    started socks;
  let front =
    spawn_front ~agrid ~err_path:(Filename.concat dir "router.err")
      ("router" :: "--queue" :: string_of_int queue
      :: List.concat_map (fun s -> [ "--backend"; s ]) socks)
  in
  let d = { front; backends } in
  let deadline = t0 +. 20. in
  let rec probe () =
    send front Gen.health_line;
    if all_healthy (read_health front) then d
    else if now () > deadline then fail "fleet backends never all healthy"
    else begin
      Thread.delay 0.002;
      probe ()
    end
  in
  probe ()

(* ---- the host ------------------------------------------------------------ *)

(* The host's CPU time stolen by the hypervisor and its total CPU time,
   in clock ticks since boot (the "cpu" line of /proc/stat). *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic -> (
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
      | ticks when List.length ticks >= 8 -> (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
      | _ -> (0, 0))

(* The share of CPU time stolen in each of [n] equal slices of [seconds]
   from now, read from /proc/stat at the slice bounds by a thread that
   sleeps in between. Join the thread before reading the array. *)
let steal_sampler ~seconds ~n =
  let shares = Array.make n 0. in
  let start = now () and prev = ref (cpu_ticks ()) in
  let sample () =
    for k = 0 to n - 1 do
      let d = start +. (float_of_int (k + 1) *. seconds /. float_of_int n) -. now () in
      if d > 0. then Thread.delay d;
      let ((s1, t1) as cur) = cpu_ticks () and s0, t0 = !prev in
      shares.(k) <- (if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.);
      prev := cur
    done
  in
  (shares, Thread.create sample ())

(* ---- the load loops ---------------------------------------------------- *)

(* What the reader thread collects: each response line with its arrival
   time; each line frees a slot of the closed loop. *)
type inbox = {
  mutable lines : (float * string) list;  (** newest first *)
  mutable count : int;
  mutable eof : bool;
  lock : Mutex.t;
  slots : Semaphore.Counting.t;
}

let reader front inbox () =
  let rec loop () =
    match input_line front.ic with
    | line ->
        let t = now () in
        Mutex.lock inbox.lock;
        inbox.lines <- (t, line) :: inbox.lines;
        inbox.count <- inbox.count + 1;
        Mutex.unlock inbox.lock;
        Semaphore.Counting.release inbox.slots;
        loop ()
    | exception (End_of_file | Sys_error _) ->
        Mutex.lock inbox.lock;
        inbox.eof <- true;
        Mutex.unlock inbox.lock
  in
  loop ()

let received inbox =
  Mutex.lock inbox.lock;
  let n = inbox.count and eof = inbox.eof in
  Mutex.unlock inbox.lock;
  (n, eof)

type sent = {
  req : Gen.request;
  at : float;  (** when it was written *)
  timed : bool;  (** inside the measured window *)
}

type outcome = {
  sent : sent array;  (** in send order *)
  responses : (float * string) array;  (** in arrival order *)
  window_start : float;
  steal : float array;  (** stolen CPU share per slice of the window *)
}

(* Closed loop: keep as many requests in flight as [slots] allows, sending
   the next one as soon as an answer frees a slot, until [until]. Returns
   the next request index. *)
let closed_phase gen front slots ~from ~until acc ~timed =
  let rec go idx =
    Semaphore.Counting.acquire slots;
    if now () >= until then begin
      Semaphore.Counting.release slots;
      idx
    end
    else begin
      let req = Gen.request gen idx in
      let line = Gen.line req in
      let at = now () in
      send front line;
      acc := { req; at; timed } :: !acc;
      go (idx + 1)
    end
  in
  go from

(* Warm up for [warm] seconds, then measure for [seconds] with
   [outstanding] requests in flight, sampling the stolen CPU share per
   one of [slices] slices; wait for every answer. The daemons stay up
   (the caller stops them). *)
let run gen d ~outstanding ~warm ~seconds ~slices =
  let slots = Semaphore.Counting.make outstanding in
  let inbox =
    { lines = []; count = 0; eof = false; lock = Mutex.create (); slots }
  in
  let th = Thread.create (reader d.front inbox) () in
  let acc = ref [] in
  let next = closed_phase gen d.front slots ~from:0 ~until:(now () +. warm) acc ~timed:false in
  let window_start = now () in
  let steal, sampler = steal_sampler ~seconds ~n:slices in
  ignore
    (closed_phase gen d.front slots ~from:next ~until:(window_start +. seconds) acc ~timed:true);
  Thread.join sampler;
  let n_sent = List.length !acc in
  (try
     wait_until ~timeout:60. "the last answers" (fun () ->
         let n, eof = received inbox in
         n >= n_sent || eof)
   with Failed _ as e ->
     stop d;
     Thread.join th;
     raise e);
(* the reader stays up until [stop] closes the pipe; the answers so far
     are complete *)
  Mutex.lock inbox.lock;
  let responses = Array.of_list (List.rev inbox.lines) in
  Mutex.unlock inbox.lock;
  ({ sent = Array.of_list (List.rev !acc); responses; window_start; steal }, th)
