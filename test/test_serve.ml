(* Tier-1 coverage of the scenario service ([Agrid_serve]): the request
   codec, the in-process server driven through [Server.submit] (no socket
   — the transport is just line framing on top of what these tests pin),
   backpressure, deadlines, both shutdown modes, and the telemetry merge.

   Response collection: [respond] callbacks fire on worker domains, so
   every test funnels them through one mutex-guarded list. *)

module Json = Agrid_obs.Json
module Sink = Agrid_obs.Sink
module Registry = Agrid_obs.Registry
module Serialize = Agrid_workload.Serialize
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Server = Agrid_serve.Server

let tiny ?(seed = 2004) () =
  Serialize.Generated
    { seed; scale = 0.03; etc_index = 0; dag_index = 0; case = Agrid_platform.Grid.A }

let job_line ?(tag = None) ?(deadline_ms = None) ?(events = []) ?(seed = 2004) () =
  Json.to_string
    (Codec.job_to_json { (Job.default (tiny ~seed ())) with Job.tag; deadline_ms; events })

type collector = { lock : Mutex.t; mutable lines : string list }

let collector () = { lock = Mutex.create (); lines = [] }

let respond_to c line =
  Mutex.lock c.lock;
  c.lines <- line :: c.lines;
  Mutex.unlock c.lock

let collected c = List.rev c.lines

let parse_line line =
  match Json.parse line with
  | j -> j
  | exception Json.Parse_error msg -> Alcotest.failf "bad response %S: %s" line msg

let get_int name j =
  match Json.get_int name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing int %S: %s" name (Json.to_string j)

let get_str name j =
  match Json.get_string name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing string %S: %s" name (Json.to_string j)

let counter_of sink name =
  match List.assoc_opt name (Sink.metrics sink) with
  | Some (Registry.Counter c) -> c
  | _ -> 0

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

(* ---- codec ---- *)

let test_codec_rejections () =
  let err line =
    match Codec.parse_request line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  Alcotest.(check bool) "not json" true
    (String.length (err "{nope") > 0);
  let missing_schema = err "{\"kind\":\"job\"}" in
  Alcotest.(check bool) "names the schema field" true
    (contains ~affix:"schema" missing_schema);
  let bad_kind = err "{\"schema\":\"agrid-job/1\",\"kind\":\"dance\"}" in
  Alcotest.(check bool) "names the kind" true
    (contains ~affix:"dance" bad_kind);
  let no_scenario = err "{\"schema\":\"agrid-job/1\",\"kind\":\"job\"}" in
  Alcotest.(check bool) "names the scenario field" true
    (contains ~affix:"scenario" no_scenario);
  (* mistyped optional fields are errors, not silent defaults *)
  let mistyped =
    err
      "{\"schema\":\"agrid-job/1\",\"kind\":\"job\",\"scenario\":{\"kind\":\"generated\",\"seed\":1,\"scale\":0.03,\"etc\":0,\"dag\":0,\"case\":\"A\"},\"delta_t\":\"ten\"}"
  in
  Alcotest.(check bool) "mistyped delta_t rejected" true
    (contains ~affix:"delta_t" mistyped);
  (* the retired incremental pool mode is an unknown mode *)
  let retired =
    err
      "{\"schema\":\"agrid-job/1\",\"kind\":\"job\",\"scenario\":{\"kind\":\"generated\",\"seed\":1,\"scale\":0.03,\"etc\":0,\"dag\":0,\"case\":\"A\"},\"mode\":\"incremental\"}"
  in
  Alcotest.(check bool) "retired mode names itself" true
    (contains ~affix:"\"incremental\"" retired);
  Alcotest.(check bool) "retired mode names the valid modes" true
    (contains ~affix:"rescan|soa" retired);
  match Codec.parse_request "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}" with
  | Ok Codec.Health -> ()
  | _ -> Alcotest.fail "health request did not parse"

(* ---- queue overflow is deterministic with the pool not yet started ---- *)

let test_backpressure () =
  let c = collector () in
  let server = Server.create ~workers:2 ~queue_capacity:2 () in
  for _ = 1 to 3 do
    Server.submit server ~respond:(respond_to c) (job_line ())
  done;
  (* pool never started: exactly the third submit overflowed, synchronously *)
  (match collected c with
  | [ line ] ->
      let j = parse_line line in
      Alcotest.(check string) "type" "rejected" (get_str "type" j);
      Alcotest.(check string) "reason" "queue_full" (get_str "reason" j);
      Alcotest.(check int) "id" 2 (get_int "id" j)
  | lines -> Alcotest.failf "expected one synchronous rejection, got %d" (List.length lines));
  Server.drain server;
  let lines = collected c in
  Alcotest.(check int) "zero lost responses" 3 (List.length lines);
  let stats = Server.stats server in
  Alcotest.(check int) "accepted" 2 stats.Server.s_accepted;
  Alcotest.(check int) "queue_full" 1 stats.Server.s_queue_full;
  Alcotest.(check int) "completed" 2 stats.Server.s_completed;
  (* after drain the server rejects instead of buffering *)
  Server.submit server ~respond:(respond_to c) (job_line ());
  match parse_line (List.nth (collected c) 3) with
  | j -> Alcotest.(check string) "draining" "draining" (get_str "reason" j)

let test_monotone_ids () =
  let c = collector () in
  let server = Server.create ~workers:2 ~queue_capacity:16 () in
  Server.start server;
  for i = 0 to 9 do
    let line =
      if i mod 4 = 3 then "garbage line " ^ string_of_int i
      else job_line ~seed:(100 + i) ()
    in
    Server.submit server ~respond:(respond_to c) line
  done;
  Server.drain server;
  let lines = collected c in
  Alcotest.(check int) "every request answered" 10 (List.length lines);
  let ids = List.map (fun l -> get_int "id" (parse_line l)) lines in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check (list int)) "ids are exactly 0..9" (List.init 10 Fun.id) sorted

(* ---- deadlines ---- *)

let test_impossible_deadline () =
  let c = collector () in
  let server = Server.create ~workers:1 ~queue_capacity:4 () in
  Server.submit server ~respond:(respond_to c)
    (job_line ~tag:(Some "doomed") ~deadline_ms:(Some 0.) ());
  Server.drain server;
  match collected c with
  | [ line ] ->
      let j = parse_line line in
      Alcotest.(check string) "status" "deadline_missed" (get_str "status" j);
      Alcotest.(check string) "tag echoed" "doomed" (get_str "tag" j);
      Alcotest.(check int) "nothing mapped" 0 (get_int "mapped" j);
      let stats = Server.stats server in
      Alcotest.(check int) "deadline_missed counted" 1 stats.Server.s_deadline_missed
  | lines -> Alcotest.failf "expected one response, got %d" (List.length lines)

(* the cooperative deadline in Job.run directly, without the server *)
let test_job_deadline_direct () =
  let r = Job.run { (Job.default (tiny ())) with Job.deadline_ms = Some 0. } in
  Alcotest.(check string) "status" "deadline_missed" (Job.status_to_string r.Job.status);
  Alcotest.(check bool) "not completed" false r.Job.completed;
  Alcotest.(check int) "final clock untouched" 0 r.Job.final_clock;
  (* a generous positive deadline goes through the monotonic clock and
     never fires; the same clock times the job *)
  let r = Job.run { (Job.default (tiny ())) with Job.deadline_ms = Some 600_000. } in
  Alcotest.(check string) "generous deadline" "ok" (Job.status_to_string r.Job.status);
  Alcotest.(check bool) "wall time in range" true
    (r.Job.wall_seconds >= 0. && r.Job.wall_seconds < 600.)

let test_job_errored () =
  let r = Job.run (Job.default (Serialize.Pinned "not a scenario")) in
  (match r.Job.status with
  | Job.Errored msg ->
      Alcotest.(check bool) "diagnostic mentions the parse" true
        (contains ~affix:"parse" msg)
  | _ -> Alcotest.fail "expected Errored");
  (* and through the server it becomes an "errored" result line *)
  let c = collector () in
  let server = Server.create ~workers:1 ~queue_capacity:4 () in
  Server.submit server ~respond:(respond_to c)
    (Json.to_string (Codec.job_to_json (Job.default (Serialize.Pinned "still not"))));
  Server.drain server;
  match collected c with
  | [ line ] ->
      Alcotest.(check string) "status" "errored" (get_str "status" (parse_line line))
  | lines -> Alcotest.failf "expected one response, got %d" (List.length lines)

(* Hostile pinned scenarios must come back as [errored] without taking
   the worker down: a 2-cycle in the edge list (Dag.Cycle out of the DAG
   build) and a declared task count the text cannot hold (which used to
   reach Array.init as an allocation of 10^11 rows). A valid job sent
   after both must still be answered and the drain must return. *)
let hostile_texts () =
  let spec = Agrid_workload.Spec.scaled ~seed:5 ~factor:0.03 () in
  let text =
    Serialize.to_string spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let lines = String.split_on_char '\n' text in
  let n = string_of_int spec.Agrid_workload.Spec.n_tasks in
  let before_edges =
    List.filter (fun l -> l <> "") (List.filteri (fun i _ -> i < 10 + spec.Agrid_workload.Spec.n_tasks) lines)
  in
  let cyclic = String.concat "\n" (before_edges @ [ "edges 2"; "0 1 1000"; "1 0 1000"; "end"; "" ]) in
  let huge = "100000000000" in
  let oversized =
    String.concat "\n"
      (List.map
         (fun l ->
           if l = "n_tasks " ^ n then "n_tasks " ^ huge
           else if l = "etc " ^ n ^ " 4" then "etc " ^ huge ^ " 4"
           else l)
         lines)
  in
  (cyclic, oversized)

let test_hostile_scenarios () =
  let cyclic, oversized = hostile_texts () in
  (match (Job.run (Job.default (Serialize.Pinned cyclic))).Job.status with
  | Job.Errored msg ->
      Alcotest.(check bool) ("cycle named: " ^ msg) true (contains ~affix:"cycle through tasks 0, 1" msg)
  | _ -> Alcotest.fail "cyclic scenario not errored");
  (match (Job.run (Job.default (Serialize.Pinned oversized))).Job.status with
  | Job.Errored msg ->
      Alcotest.(check bool) ("count rejected: " ^ msg) true (contains ~affix:"line 10: etc rows declares 100000000000" msg)
  | _ -> Alcotest.fail "oversized scenario not errored");
  let c = collector () in
  let server = Server.create ~workers:1 ~queue_capacity:4 () in
  let submit text =
    Server.submit server ~respond:(respond_to c)
      (Json.to_string (Codec.job_to_json (Job.default (Serialize.Pinned text))))
  in
  submit cyclic;
  submit oversized;
  Server.submit server ~respond:(respond_to c) (job_line ());
  let drained = Atomic.make false in
  let _ : Thread.t =
    Thread.create
      (fun () ->
        Server.drain server;
        Atomic.set drained true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Atomic.get drained)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "drain returned" true (Atomic.get drained);
  let statuses =
    List.sort compare (List.map (fun l -> get_str "status" (parse_line l)) (collected c))
  in
  Alcotest.(check (list string)) "two errored, one ok" [ "errored"; "errored"; "ok" ] statuses

(* ---- the two stages: prepare on the reader, execute on a worker ---- *)

(* [Job.execute (Job.prepare s)] must be [Job.run s]: generated, pinned,
   churn and adaptive specs, and specs that come back errored from
   either stage (parse error, DAG cycle, invalid churn event). *)
let test_prepare_execute_is_run () =
  let pinned seed =
    let spec = Agrid_workload.Spec.scaled ~seed ~factor:0.03 () in
    Serialize.Pinned
      (Serialize.to_string spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.B)
  in
  let cyclic, oversized = hostile_texts () in
  let churn seed trace =
    { (Job.default (tiny ~seed ())) with Job.events = Agrid_churn.Event.parse_trace trace }
  in
  let specs =
    List.init 4 (fun i -> Job.default (tiny ~seed:(40 + i) ()))
    @ [
        { (Job.default (tiny ~seed:41 ())) with Job.mode = `Rescan; variant = Agrid_core.Slrh.V2 };
        Job.default (pinned 5);
        { (Job.default (pinned 6)) with Job.variant = Agrid_core.Slrh.V3 };
        churn 8 "leave@40:1,rejoin@90:1";
        churn 9 "shock@30:0:0.5,degrade@50:2:2";
        { (Job.default (tiny ~seed:12 ())) with Job.adapt = Some Agrid_core.Adapt.default_spec };
        {
          (churn 13 "leave@40:1") with
          Job.adapt = Some { Agrid_core.Adapt.default_spec with prob = Some 0.9 };
        };
        Job.default (Serialize.Pinned "not a scenario");
        Job.default (Serialize.Pinned cyclic);
        Job.default (Serialize.Pinned oversized);
        churn 14 "leave@40:9";
      ]
  in
  let errored = ref 0 in
  List.iteri
    (fun i spec ->
      let split = Job.execute (Job.prepare spec) and whole = Job.run spec in
      (match whole.Job.status with Job.Errored _ -> incr errored | _ -> ());
      Alcotest.(check string)
        (Fmt.str "spec %d status" i)
        (Job.status_to_string whole.Job.status)
        (Job.status_to_string split.Job.status);
      Alcotest.(check bool) (Fmt.str "spec %d: split = run" i) true
        (Testlib.job_equal_modulo_wall split whole))
    specs;
  Alcotest.(check int) "the errored specs errored" 4 !errored

(* The deadline covers realize and the scheduler loop, never the time a
   prepared job waits for a worker. *)
let test_deadline_charges_realize_not_queue () =
  (* a deadline shorter than the realize: missed at the first timestep *)
  let large =
    Serialize.Generated
      { seed = 3; scale = 0.5; etc_index = 0; dag_index = 0; case = Agrid_platform.Grid.A }
  in
  let p = Job.prepare (Job.default large) in
  let realize_ms = Int64.to_float p.Job.realize_ns /. 1e6 in
  Alcotest.(check bool) "realize took time" true (realize_ms > 0.);
  let r =
    Job.execute { p with Job.spec = { p.Job.spec with Job.deadline_ms = Some (realize_ms /. 2.) } }
  in
  Alcotest.(check string) "realize charged" "deadline_missed" (Job.status_to_string r.Job.status);
  Alcotest.(check int) "missed before the first step" 0 r.Job.final_clock;
  Alcotest.(check bool) "wall time covers realize" true (r.Job.wall_seconds *. 1000. >= realize_ms);
  (* waiting between the stages is not charged, directly ... *)
  let budget_ms = 200. and wait_s = 0.25 in
  let p = Job.prepare { (Job.default (tiny ())) with Job.deadline_ms = Some budget_ms } in
  Unix.sleepf wait_s;
  let r = Job.execute p in
  Alcotest.(check string) "queue wait not charged" "ok" (Job.status_to_string r.Job.status);
  Alcotest.(check bool) "wall time excludes the wait" true (r.Job.wall_seconds < wait_s);
  (* ... and through the server's queue *)
  let c = collector () in
  let server = Server.create ~workers:1 ~queue_capacity:4 () in
  Server.submit server ~respond:(respond_to c) (job_line ~deadline_ms:(Some budget_ms) ());
  Unix.sleepf wait_s;
  Server.drain server;
  match collected c with
  | [ line ] ->
      let j = parse_line line in
      Alcotest.(check string) "served after a queue wait" "ok" (get_str "status" j)
  | lines -> Alcotest.failf "expected one response, got %d" (List.length lines)

exception Injected_fault

(* drain on a helper thread; [true] iff it returned within 30 s *)
let drains_within server =
  let drained = Atomic.make false in
  let _ : Thread.t =
    Thread.create
      (fun () ->
        Server.drain server;
        Atomic.set drained true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Atomic.get drained)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Atomic.get drained

(* An exception Job does not map, raised by either stage, is one
   [errored] line naming it; the jobs after it are still served and the
   drain returns. *)
let test_faulty_job_contained () =
  let faulty tag (spec : Job.spec) = spec.Job.tag = Some tag in
  let prepare spec =
    if faulty "realize-fault" spec then raise Injected_fault else Job.prepare spec
  in
  let execute ~obs (p : Job.prepared) =
    if faulty "run-fault" p.Job.spec then raise Injected_fault else Job.execute ~obs p
  in
  let sink = Sink.create ~stride:8 () in
  let c = collector () in
  let server = Server.create ~obs:sink ~workers:1 ~queue_capacity:8 ~prepare ~execute () in
  Server.start server;
  let submit tag = Server.submit server ~respond:(respond_to c) (job_line ~tag:(Some tag) ()) in
  List.iter submit [ "run-fault"; "realize-fault"; "a"; "run-fault"; "b"; "c" ];
  Alcotest.(check bool) "drain returned" true (drains_within server);
  let lines = List.map parse_line (collected c) in
  Alcotest.(check int) "one line per job" 6 (List.length lines);
  List.iter
    (fun j ->
      let tag = get_str "tag" j and status = get_str "status" j in
      if tag = "run-fault" || tag = "realize-fault" then begin
        Alcotest.(check string) (tag ^ " errored") "errored" status;
        Alcotest.(check bool) (tag ^ ": names the exception") true
          (contains ~affix:"Injected_fault" (get_str "error" j))
      end
      else Alcotest.(check string) (tag ^ " still served") "ok" status)
    lines;
  let stats = Server.stats server in
  Alcotest.(check int) "worker_exn counted" 3 stats.Server.s_worker_exn;
  Alcotest.(check int) "errored includes them" 3 stats.Server.s_errored;
  Alcotest.(check int) "serve/worker_exn" 3 (counter_of sink "serve/worker_exn")

(* Every domain that takes a job runs with a 32,768-word minor heap: the
   one that submits (here, the test's) and the worker. *)
let test_domains_sized () =
  let c = collector () in
  let server = Server.create ~workers:2 ~queue_capacity:8 () in
  Server.start server;
  for i = 0 to 7 do
    Server.submit server ~respond:(respond_to c) (job_line ~seed:(60 + i) ())
  done;
  Server.drain server;
  (* what a domain starts with: OCaml's default, or OCAMLRUNPARAM's s= *)
  let default = Domain.join (Domain.spawn (fun () -> (Gc.get ()).Gc.minor_heap_size)) in
  Alcotest.(check int) "submitting domain" 32_768 (Gc.get ()).Gc.minor_heap_size;
  let heaps = Server.worker_heap_words server in
  Alcotest.(check int) "one entry per worker" 2 (List.length heaps);
  Alcotest.(check bool) "a worker served and was sized" true (List.mem 32_768 heaps);
  List.iter
    (fun w ->
      if w <> 32_768 && w <> default then Alcotest.failf "worker heap of %d words" w)
    heaps;
  (* a worker domain that never took a job keeps OCaml's default *)
  let idle = Server.create ~workers:1 ~queue_capacity:4 () in
  Server.start idle;
  Server.drain idle;
  Alcotest.(check (list int)) "idle worker unsized" [ default ] (Server.worker_heap_words idle)

(* ---- health ---- *)

let test_health () =
  let c = collector () in
  let server = Server.create ~workers:3 ~queue_capacity:8 () in
  Server.submit server ~respond:(respond_to c)
    "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}";
  (match collected c with
  | [ line ] ->
      let j = parse_line line in
      Alcotest.(check string) "type" "health" (get_str "type" j);
      Alcotest.(check int) "workers" 3 (get_int "workers" j);
      Alcotest.(check int) "queue empty" 0 (get_int "queue_depth" j);
      Alcotest.(check bool) "uptime present" true (Json.get_float "uptime_s" j <> None)
  | lines -> Alcotest.failf "expected one response, got %d" (List.length lines));
  Server.drain server

(* ---- stats request: rolling snapshot, answered synchronously ---- *)

let test_stats_request () =
  let c = collector () in
  let tracer = Agrid_obs.Trace.create ~nonce:0 () in
  let server = Server.create ~trace:tracer ~workers:2 ~queue_capacity:8 () in
  for i = 0 to 2 do
    Server.submit server ~respond:(respond_to c) (job_line ~seed:(400 + i) ())
  done;
  Server.drain server;
  let sc = collector () in
  Server.submit server ~respond:(respond_to sc)
    "{\"schema\":\"agrid-job/1\",\"kind\":\"stats\"}";
  (match collected sc with
  | [ line ] -> (
      match Codec.parse_stats line with
      | Error msg -> Alcotest.failf "stats line rejected: %s on %S" msg line
      | Ok s ->
          Alcotest.(check string) "role" "serve" s.Codec.ss_role;
          Alcotest.(check int) "workers" 2 s.Codec.ss_workers;
          Alcotest.(check int) "accepted" 3 s.Codec.ss_accepted;
          Alcotest.(check int) "completed" 3 s.Codec.ss_completed;
          Alcotest.(check int) "drained: nothing queued" 0 s.Codec.ss_queue_depth;
          Alcotest.(check (list (triple string string int))) "no backends on serve"
            [] s.Codec.ss_backends;
          (* jobs just completed, so the rolling window is live *)
          Alcotest.(check bool) "window rate positive" true (s.Codec.ss_rate > 0.);
          Alcotest.(check bool) "rolling p95 is finite" true
            (Float.is_finite s.Codec.ss_p95_s);
          Alcotest.(check bool) "quantiles ordered" true
            (s.Codec.ss_p50_s <= s.Codec.ss_p95_s
            && s.Codec.ss_p95_s <= s.Codec.ss_p99_s);
          Alcotest.(check bool) "trace ring populated" true
            (s.Codec.ss_trace_events > 0);
          Alcotest.(check int) "nothing dropped" 0 s.Codec.ss_trace_dropped)
  | lines -> Alcotest.failf "expected one stats response, got %d" (List.length lines));
  let stats = Server.stats server in
  Alcotest.(check int) "stats requests counted" 1 stats.Server.s_stats;
  Server.drain server;
  (* without a tracer the snapshot still answers, with zero occupancy —
     and synchronously even when the worker pool never started *)
  let bare = Server.create ~workers:2 ~queue_capacity:8 () in
  let bc = collector () in
  Server.submit bare ~respond:(respond_to bc)
    "{\"schema\":\"agrid-job/1\",\"kind\":\"stats\"}";
  (match collected bc with
  | [ line ] -> (
      match Codec.parse_stats line with
      | Ok s ->
          Alcotest.(check int) "no tracer: zero events" 0 s.Codec.ss_trace_events;
          Alcotest.(check bool) "idle window: NaN p50" true
            (Float.is_nan s.Codec.ss_p50_s)
      | Error msg -> Alcotest.failf "bare stats rejected: %s" msg)
  | lines -> Alcotest.failf "expected one response, got %d" (List.length lines));
  ignore (Server.stop bare)

(* ---- hard shutdown answers queued jobs as dropped ---- *)

let test_stop_drops_queued () =
  let c = collector () in
  let server = Server.create ~workers:2 ~queue_capacity:8 () in
  (* pool intentionally not started: everything stays queued *)
  for i = 0 to 4 do
    Server.submit server ~respond:(respond_to c) (job_line ~tag:(Some (Fmt.str "q%d" i)) ())
  done;
  let dropped = Server.stop server in
  Alcotest.(check int) "all five dropped" 5 dropped;
  let lines = collected c in
  Alcotest.(check int) "every job answered" 5 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check string) "dropped line" "dropped" (get_str "type" (parse_line l)))
    lines;
  let stats = Server.stats server in
  Alcotest.(check int) "dropped counted" 5 stats.Server.s_dropped;
  Alcotest.(check int) "stop is idempotent" 0 (Server.stop server)

(* ---- served results are bit-identical to one-shot runs ---- *)

let test_bit_identical_to_oneshot () =
  let specs =
    [
      Job.default (tiny ());
      { (Job.default (tiny ~seed:31 ())) with Job.mode = `Rescan };
      {
        (Job.default (tiny ~seed:8 ())) with
        Job.events = Agrid_churn.Event.parse_trace "leave@40:1,rejoin@90:1";
      };
    ]
  in
  let c = collector () in
  let server = Server.create ~workers:3 ~queue_capacity:8 () in
  List.iter
    (fun s ->
      Server.submit server ~respond:(respond_to c)
        (Json.to_string (Codec.job_to_json s)))
    specs;
  Server.drain server;
  let by_id = List.map (fun l -> parse_line l) (collected c) in
  List.iteri
    (fun i spec ->
      let j = List.find (fun j -> get_int "id" j = i) by_id in
      let oneshot = Job.run spec in
      Alcotest.(check string)
        (Fmt.str "job %d status" i)
        (Job.status_to_string oneshot.Job.status)
        (get_str "status" j);
      Alcotest.(check int) (Fmt.str "job %d t100" i) oneshot.Job.t100 (get_int "t100" j);
      Alcotest.(check int) (Fmt.str "job %d aet" i) oneshot.Job.aet (get_int "aet" j);
      Alcotest.(check int)
        (Fmt.str "job %d final_clock" i)
        oneshot.Job.final_clock (get_int "final_clock" j);
      Alcotest.(check string)
        (Fmt.str "job %d tec bits" i)
        (Fmt.str "%Lx" (Int64.bits_of_float oneshot.Job.tec))
        (get_str "tec_bits" j))
    specs;
  (* and Job.run itself is reproducible run-to-run *)
  let s = List.nth specs 2 in
  Alcotest.(check bool) "Job.run deterministic" true
    (Testlib.job_equal_modulo_wall (Job.run s) (Job.run s))

(* ---- per-job sinks merge into the pool sink ---- *)

let test_obs_merge () =
  let sink = Sink.create ~stride:1 () in
  let c = collector () in
  let server = Server.create ~obs:sink ~workers:2 ~queue_capacity:8 () in
  Server.submit server ~respond:(respond_to c) (job_line ());
  Server.submit server ~respond:(respond_to c) (job_line ~seed:31 ());
  Server.submit server ~respond:(respond_to c) (job_line ~deadline_ms:(Some 0.) ());
  Server.submit server ~respond:(respond_to c) "garbage";
  Server.submit server ~respond:(respond_to c)
    "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}";
  Server.drain server;
  Alcotest.(check int) "serve/accepted" 3 (counter_of sink "serve/accepted");
  Alcotest.(check int) "serve/completed" 2 (counter_of sink "serve/completed");
  Alcotest.(check int) "serve/deadline_missed" 1 (counter_of sink "serve/deadline_missed");
  Alcotest.(check int) "serve/malformed" 1 (counter_of sink "serve/malformed");
  Alcotest.(check int) "serve/health" 1 (counter_of sink "serve/health");
  (* the two completed jobs' SLRH telemetry landed in the pool sink *)
  Alcotest.(check bool) "slrh counters merged" true
    (counter_of sink "slrh/clock_steps" > 0);
  (* per-job latency histogram covers every finished job *)
  (match List.assoc_opt "serve/latency_s" (Sink.metrics sink) with
  | Some (Registry.Histogram h) ->
      Alcotest.(check int) "latency observations" 3 (Agrid_obs.Hist.count h)
  | _ -> Alcotest.fail "serve/latency_s histogram missing");
  (* responses all arrived too *)
  Alcotest.(check int) "responses" 5 (List.length (collected c))

(* ---- the hardened socket transport survives hostile clients ---- *)

let test_transport_survives_abrupt_disconnects () =
  let sink = Sink.create () in
  let server = Server.create ~workers:2 ~queue_capacity:8 () in
  Server.start server;
  let path = Filename.temp_file "agrid_transport" ".sock" in
  let tr =
    match Agrid_serve.Transport.listen ~path with
    | Ok tr -> tr
    | Error msg -> Alcotest.failf "listen: %s" msg
  in
  let stop = Atomic.make false in
  let loop =
    Thread.create
      (fun () ->
        Agrid_serve.Transport.accept_loop ~obs:sink
          ~stop:(fun () -> Atomic.get stop)
          ~handle:(fun ~respond ~ic ->
            let r =
              Agrid_serve.Transport.pump
                ~stop:(fun () -> Atomic.get stop)
                ~on_line:(fun line -> Server.submit server ~respond line)
                ic
            in
            Server.quiesce server;
            r)
          tr)
      ()
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  (* connection 1: shut our receive side before submitting, so the
     daemon's response write hits a broken pipe — it must count the error
     and keep serving, not die of SIGPIPE or an exception *)
  let fd1 = connect () in
  Unix.shutdown fd1 Unix.SHUTDOWN_RECEIVE;
  let line = job_line () ^ "\n" in
  ignore (Unix.write_substring fd1 line 0 (String.length line));
  Unix.close fd1;
  (* connection 2 (after the carnage): a normal request/response works *)
  let fd2 = connect () in
  let health = "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}\n" in
  ignore (Unix.write_substring fd2 health 0 (String.length health));
  let ic2 = Unix.in_channel_of_descr fd2 in
  let answer =
    match input_line ic2 with
    | l -> l
    | exception End_of_file -> Alcotest.fail "no response on the clean connection"
  in
  Alcotest.(check string) "health answered" "health"
    (get_str "type" (parse_line answer));
  Unix.close fd2;
  Atomic.set stop true;
  Agrid_serve.Transport.shutdown tr;
  Thread.join loop;
  Server.drain server;
  Alcotest.(check bool) "conn error counted" true
    (counter_of sink "serve/conn_errors" >= 1);
  Alcotest.(check int) "both requests reached the server" 2
    (Server.stats server).Server.s_requests

(* [Transport.shutdown] while the accept loop is already blocked in
   [accept] (stop never fires): the loop must exit. Closing alone leaves
   the thread blocked on Linux, and [Thread.join] below never returns. *)
let test_transport_shutdown_wakes_accept () =
  let path = Filename.temp_file "agrid_transport" ".sock" in
  let tr =
    match Agrid_serve.Transport.listen ~path with
    | Ok tr -> tr
    | Error msg -> Alcotest.failf "listen: %s" msg
  in
  let loop =
    Thread.create
      (fun () ->
        Agrid_serve.Transport.accept_loop
          ~stop:(fun () -> false)
          ~handle:(fun ~respond:_ ~ic:_ -> `Eof)
          tr)
      ()
  in
  Thread.delay 0.05;
  Agrid_serve.Transport.shutdown tr;
  Thread.join loop;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists path)

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "codec: typed rejections" `Quick test_codec_rejections;
        Alcotest.test_case "queue overflow -> queue_full (deterministic)" `Quick
          test_backpressure;
        Alcotest.test_case "monotone ids, zero lost responses" `Quick
          test_monotone_ids;
        Alcotest.test_case "impossible deadline -> deadline_missed" `Quick
          test_impossible_deadline;
        Alcotest.test_case "Job.run deadline, directly" `Quick
          test_job_deadline_direct;
        Alcotest.test_case "bad scenario -> errored result" `Quick test_job_errored;
        Alcotest.test_case "hostile pinned scenarios -> errored, worker lives" `Quick
          test_hostile_scenarios;
        Alcotest.test_case "Job.execute (Job.prepare s) = Job.run s" `Quick
          test_prepare_execute_is_run;
        Alcotest.test_case "deadline charges realize, not queue wait" `Quick
          test_deadline_charges_realize_not_queue;
        Alcotest.test_case "a job that raises is errored, service goes on" `Quick
          test_faulty_job_contained;
        Alcotest.test_case "every job-taking domain runs a sized minor heap" `Quick
          test_domains_sized;
        Alcotest.test_case "health request" `Quick test_health;
        Alcotest.test_case "stats request: rolling snapshot" `Quick
          test_stats_request;
        Alcotest.test_case "hard stop answers queued jobs as dropped" `Quick
          test_stop_drops_queued;
        Alcotest.test_case "served results bit-identical to one-shot" `Quick
          test_bit_identical_to_oneshot;
        Alcotest.test_case "telemetry merges into the pool sink" `Quick
          test_obs_merge;
        Alcotest.test_case "transport survives abrupt disconnects" `Quick
          test_transport_survives_abrupt_disconnects;
        Alcotest.test_case "transport shutdown wakes a blocked accept" `Quick
          test_transport_shutdown_wakes_accept;
      ] );
  ]
