(* Tier-1 coverage of the fleet router ([Agrid_fleet]): the pure policy
   functions, the codec additions the router rides on (tagged rejections,
   maybe_executed, fleet health, response parsing, identity rewriting) and
   the router itself end-to-end over in-process [Sim] backends — including
   backend death, reconnection and the at-most-once ambiguity report.

   Fault timing is made deterministic by construction, never by sleeps
   alone: tests wait on observable state (health snapshots, response
   counts) with a generous ceiling, and the injected faults (wedge,
   refuse_connects, un-started routers) force a unique outcome. *)

module Json = Agrid_obs.Json
module Sink = Agrid_obs.Sink
module Registry = Agrid_obs.Registry
module Serialize = Agrid_workload.Serialize
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Server = Agrid_serve.Server
module Policy = Agrid_fleet.Policy
module Router = Agrid_fleet.Router
module Sim = Agrid_fleet.Sim

let tiny ?(seed = 2004) () =
  Serialize.Generated
    { seed; scale = 0.03; etc_index = 0; dag_index = 0; case = Agrid_platform.Grid.A }

let job_line ?(tag = None) ?(seed = 2004) () =
  Json.to_string (Codec.job_to_json { (Job.default (tiny ~seed ())) with Job.tag })

type collector = { lock : Mutex.t; mutable lines : string list }

let collector () = { lock = Mutex.create (); lines = [] }

let respond_to c line =
  Mutex.lock c.lock;
  c.lines <- line :: c.lines;
  Mutex.unlock c.lock

let collected c =
  Mutex.lock c.lock;
  let l = List.rev c.lines in
  Mutex.unlock c.lock;
  l

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

(* Poll an observable predicate to its deadline — fault detection is
   asynchronous (probe timeouts, EOF notices), but always bounded. *)
let eventually ?(timeout_s = 10.) msg pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for: %s" msg
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let quick_config =
  {
    Router.default_config with
    Router.queue_capacity = 32;
    inflight_cap = 4;
    max_attempts = 3;
    backoff_base_s = 0.01;
    backoff_cap_s = 0.05;
    probe_interval_s = 0.1;
    probe_timeout_s = 0.15;
    dead_after_timeouts = 2;
    connect_backoff_s = 0.05;
    seed = 42;
  }

let start_router ?obs ?trace ?(config = quick_config) sims =
  let r = Router.create ?obs ?trace config (List.map Sim.spec sims) in
  (match Router.start r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "router failed to start: %s" msg);
  r

let backend_health r name =
  match List.find_opt (fun (n, _, _) -> n = name) (Router.health_snapshot r) with
  | Some (_, h, _) -> h
  | None -> Alcotest.failf "no backend %S in health snapshot" name

(* ---- policy ---- *)

let test_policy_select () =
  let open Policy in
  let check msg expected healths inflight =
    let got =
      match select ~healths ~inflight ~cap:2 with
      | `Pick i -> Fmt.str "pick %d" i
      | `Wait -> "wait"
      | `Unavailable -> "unavailable"
    in
    Alcotest.(check string) msg expected got
  in
  check "least-loaded healthy wins" "pick 1"
    [| Healthy; Healthy |] [| 1; 0 |];
  check "lowest index breaks ties" "pick 0"
    [| Healthy; Healthy; Healthy |] [| 1; 1; 1 |];
  check "healthy preferred over idle degraded" "pick 1"
    [| Degraded; Healthy |] [| 0; 1 |];
  check "degraded serves when no healthy candidate" "pick 0"
    [| Degraded; Dead |] [| 0; 0 |];
  check "dead excluded entirely" "pick 1"
    [| Dead; Healthy |] [| 0; 1 |];
  check "alive but capped is backpressure" "wait"
    [| Healthy; Degraded |] [| 2; 2 |];
  check "capped healthy falls back to degraded" "pick 1"
    [| Healthy; Degraded |] [| 2; 0 |];
  check "all dead is unavailable" "unavailable"
    [| Dead; Dead |] [| 0; 0 |];
  match select ~healths:[| Healthy |] ~inflight:[| 0; 0 |] ~cap:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched arrays accepted"

let test_policy_backoff () =
  (* u = 0 gives the deterministic floor: half the doubling nominal *)
  let at attempt = Policy.backoff_s ~base_s:0.1 ~cap_s:1.0 ~attempt ~u:0. in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.05 (at 1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.1 (at 2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.2 (at 3);
  Alcotest.(check (float 1e-9)) "attempt 10 capped" 0.5 (at 10);
  (* jitter spans [50%, 100%) of nominal *)
  let hi = Policy.backoff_s ~base_s:0.1 ~cap_s:1.0 ~attempt:1 ~u:0.999999 in
  Alcotest.(check bool) "jitter below nominal" true (hi < 0.1);
  Alcotest.(check bool) "jitter above half" true (hi > 0.05);
  (match Policy.backoff_s ~base_s:0.1 ~cap_s:1.0 ~attempt:0 ~u:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 accepted");
  match Policy.backoff_s ~base_s:0.1 ~cap_s:1.0 ~attempt:1 ~u:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u = 1 accepted"

let test_policy_classify () =
  Alcotest.(check string) "fast probe healthy" "healthy"
    (Policy.health_to_string (Policy.classify_rtt ~rtt_s:0.01 ~degraded_rtt_s:0.25));
  Alcotest.(check string) "slow probe degraded" "degraded"
    (Policy.health_to_string (Policy.classify_rtt ~rtt_s:0.3 ~degraded_rtt_s:0.25))

(* ---- codec additions ---- *)

let test_codec_maybe_executed_roundtrip () =
  let line =
    Codec.maybe_executed_line ~id:7 ~tag:(Some "job-7") ~backend:"b1"
      ~detail:"backend died with the job in flight"
  in
  match Codec.parse_response line with
  | Error msg -> Alcotest.failf "own maybe_executed line rejected: %s" msg
  | Ok r ->
      Alcotest.(check bool) "type" true (r.Codec.r_type = `Maybe_executed);
      Alcotest.(check int) "id" 7 r.Codec.r_id;
      Alcotest.(check (option string)) "tag" (Some "job-7") r.Codec.r_tag;
      Alcotest.(check (option string)) "status" (Some "maybe_executed") r.Codec.r_status;
      Alcotest.(check string) "backend" "b1" (get_str "backend" r.Codec.r_json)

let test_codec_saturated_roundtrip () =
  let line =
    Codec.rejected_line ~tag:(Some "t") ~id:3 ~reason:`All_backends_saturated
      ~detail:"no backend accepted the job after 5 attempt(s)" ()
  in
  match Codec.parse_response line with
  | Error msg -> Alcotest.failf "own saturated line rejected: %s" msg
  | Ok r ->
      Alcotest.(check bool) "type" true (r.Codec.r_type = `Rejected);
      Alcotest.(check bool) "reason" true
        (r.Codec.r_reason = Some `All_backends_saturated);
      Alcotest.(check (option string)) "tag echoed" (Some "t") r.Codec.r_tag

let test_codec_reason_roundtrip () =
  List.iter
    (fun reason ->
      let s = Codec.reason_to_string reason in
      match Codec.reason_of_string s with
      | Some r -> Alcotest.(check bool) (Fmt.str "reason %s" s) true (r = reason)
      | None -> Alcotest.failf "reason %s did not round-trip" s)
    [ `Queue_full; `Malformed; `Draining; `All_backends_saturated ];
  Alcotest.(check bool) "unknown reason rejected" true
    (Codec.reason_of_string "tired" = None)

let test_codec_fleet_health () =
  let line =
    Codec.fleet_health_line ~id:0 ~uptime_s:1.5 ~queue_depth:3
      ~backends:[ ("b0", "healthy", 2); ("b1", "dead", 0) ]
      ~accepted:10 ~completed:7
  in
  match Codec.parse_response line with
  | Error msg -> Alcotest.failf "fleet health line rejected: %s" msg
  | Ok r -> (
      Alcotest.(check bool) "type" true (r.Codec.r_type = `Health);
      match Json.member "backends" r.Codec.r_json with
      | Some (Json.Arr [ b0; b1 ]) ->
          Alcotest.(check string) "b0 name" "b0" (get_str "name" b0);
          Alcotest.(check string) "b0 health" "healthy" (get_str "health" b0);
          Alcotest.(check int) "b0 in_flight" 2 (get_int "in_flight" b0);
          Alcotest.(check string) "b1 health" "dead" (get_str "health" b1)
      | _ -> Alcotest.fail "backends array missing or mis-shaped")

let test_codec_with_identity () =
  let inner =
    Codec.result_line ~id:99 ~tag:(Some "f12") ~latency_s:0.5 (Job.run (Job.default (tiny ())))
  in
  match Codec.parse_response inner with
  | Error msg -> Alcotest.failf "result line rejected: %s" msg
  | Ok r ->
      let rewritten =
        Codec.with_identity ~id:12 ~tag:(Some "client-tag") ~backend:"b0"
          r.Codec.r_json
      in
      Alcotest.(check int) "id rewritten" 12 (get_int "id" rewritten);
      Alcotest.(check string) "tag restored" "client-tag" (get_str "tag" rewritten);
      Alcotest.(check string) "backend appended" "b0" (get_str "backend" rewritten);
      (* the payload — tec_bits in particular — passes through untouched *)
      Alcotest.(check string) "tec_bits preserved"
        (get_str "tec_bits" r.Codec.r_json)
        (get_str "tec_bits" rewritten)

let test_codec_parse_response_total () =
  let err line =
    match Codec.parse_response line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  ignore (err "{nope");
  ignore (err "{\"schema\":\"wrong/1\",\"type\":\"result\",\"id\":0}");
  ignore (err "{\"schema\":\"agrid-job-result/1\",\"type\":\"sideways\",\"id\":0}");
  ignore (err "{\"schema\":\"agrid-job-result/1\",\"type\":\"result\"}");
  ignore (err "{\"schema\":\"agrid-job-result/1\",\"type\":\"rejected\",\"id\":1}");
  ignore
    (err "{\"schema\":\"agrid-job-result/1\",\"type\":\"rejected\",\"id\":1,\"reason\":\"vibes\"}")

(* ---- router end-to-end over Sim backends ---- *)

let test_router_balances_and_relays () =
  let sims = [ Sim.create "b0"; Sim.create "b1" ] in
  let r = start_router sims in
  let c = collector () in
  let n = 6 in
  for i = 0 to n - 1 do
    Router.submit r ~respond:(respond_to c)
      (job_line ~tag:(Some (Fmt.str "t%d" i)) ~seed:(300 + i) ())
  done;
  Router.submit r ~respond:(respond_to c) "garbage line";
  Router.submit r ~respond:(respond_to c)
    "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}";
  Router.drain r;
  List.iter Sim.shutdown sims;
  let lines = List.map parse_line (collected c) in
  Alcotest.(check int) "one response per request" (n + 2) (List.length lines);
  let ids = List.sort_uniq compare (List.map (get_int "id") lines) in
  Alcotest.(check (list int)) "ids exactly 0..n+1" (List.init (n + 2) Fun.id) ids;
  (* results carry the client tag, the serving backend, and bit-exact TECs *)
  for i = 0 to n - 1 do
    let j = List.find (fun j -> get_int "id" j = i) lines in
    Alcotest.(check string) (Fmt.str "job %d type" i) "result" (get_str "type" j);
    Alcotest.(check string) (Fmt.str "job %d tag" i) (Fmt.str "t%d" i)
      (get_str "tag" j);
    Alcotest.(check bool)
      (Fmt.str "job %d backend" i)
      true
      (List.mem (get_str "backend" j) [ "b0"; "b1" ]);
    let oneshot = Job.run (Job.default (tiny ~seed:(300 + i) ())) in
    Alcotest.(check string)
      (Fmt.str "job %d tec bits" i)
      (Fmt.str "%Lx" (Int64.bits_of_float oneshot.Job.tec))
      (get_str "tec_bits" j)
  done;
  let health = List.find (fun j -> get_str "type" j = "health") lines in
  (match Json.member "backends" health with
  | Some (Json.Arr l) -> Alcotest.(check int) "health lists both backends" 2 (List.length l)
  | _ -> Alcotest.fail "fleet health line without backends");
  let s = Router.stats r in
  Alcotest.(check int) "accepted" n s.Router.st_accepted;
  Alcotest.(check int) "completed" n s.Router.st_completed;
  Alcotest.(check int) "malformed" 1 s.Router.st_malformed;
  Alcotest.(check int) "health" 1 s.Router.st_health;
  Alcotest.(check int) "nothing ambiguous" 0 s.Router.st_maybe_executed;
  Alcotest.(check int) "dispatch split sums to n" n
    (List.fold_left
       (fun acc b -> acc + b.Router.bs_dispatched)
       0 s.Router.st_backends)

let test_router_wedged_backend_becomes_maybe_executed () =
  let sim = Sim.create "b0" in
  let r = start_router [ sim ] in
  let c = collector () in
  Sim.wedge sim;
  Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "ambiguous") ());
  (* the job was written to the wedged backend; probe timeouts must kill
     the connection and surface the typed ambiguity *)
  eventually "maybe_executed response" (fun () -> List.length (collected c) = 1);
  Router.drain r;
  Sim.unwedge sim;
  Sim.shutdown sim;
  let j = parse_line (List.hd (collected c)) in
  Alcotest.(check string) "type" "maybe_executed" (get_str "type" j);
  Alcotest.(check string) "status" "maybe_executed" (get_str "status" j);
  Alcotest.(check string) "client tag restored" "ambiguous" (get_str "tag" j);
  Alcotest.(check string) "names the backend" "b0" (get_str "backend" j);
  let s = Router.stats r in
  Alcotest.(check int) "maybe_executed counted" 1 s.Router.st_maybe_executed;
  Alcotest.(check int) "never re-run" 0 s.Router.st_completed

let test_router_all_dead_saturates_then_recovers () =
  let sim = Sim.create "b0" in
  let r = start_router [ sim ] in
  let c = collector () in
  (* killing the backend with nothing in flight: the router must notice
     (EOF) and refuse-to-connect keeps it down *)
  Sim.refuse_connects sim true;
  Sim.kill sim;
  eventually "backend marked dead" (fun () -> backend_health r "b0" = "dead");
  Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "doomed") ());
  eventually "saturated response" (fun () -> List.length (collected c) = 1);
  let j = parse_line (List.hd (collected c)) in
  Alcotest.(check string) "type" "rejected" (get_str "type" j);
  Alcotest.(check string) "reason" "all_backends_saturated" (get_str "reason" j);
  Alcotest.(check string) "client tag echoed" "doomed" (get_str "tag" j);
  let s = Router.stats r in
  Alcotest.(check int) "saturated counted" 1 s.Router.st_saturated;
  Alcotest.(check bool) "attempts were retried" true (s.Router.st_retries >= 1);
  (* restart: lift the refusal, wait for the reconnect, serve again *)
  Sim.refuse_connects sim false;
  eventually "backend reconnected" (fun () -> backend_health r "b0" <> "dead");
  Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "revived") ());
  eventually "revived job answered" (fun () -> List.length (collected c) = 2);
  Router.drain r;
  Sim.shutdown sim;
  let j2 =
    List.find (fun j -> get_int "id" j = 1) (List.map parse_line (collected c))
  in
  Alcotest.(check string) "revived result" "result" (get_str "type" j2);
  Alcotest.(check bool) "reconnect counted" true
    ((List.hd (Router.stats r).Router.st_backends).Router.bs_reconnects >= 1);
  Alcotest.(check bool) "second incarnation served it" true (Sim.incarnations sim >= 2)

let test_router_admission_backpressure_and_drop () =
  let sim = Sim.create "b0" in
  (* router never started: admissions sit in the queue, overflow is
     synchronous and deterministic, and stop answers the rest as dropped *)
  let r =
    Router.create { quick_config with Router.queue_capacity = 1 } [ Sim.spec sim ]
  in
  let c = collector () in
  Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "queued") ());
  Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "bounced") ());
  (match collected c with
  | [ line ] ->
      let j = parse_line line in
      Alcotest.(check string) "reason" "queue_full" (get_str "reason" j);
      Alcotest.(check int) "id" 1 (get_int "id" j);
      Alcotest.(check string) "tag echoed" "bounced" (get_str "tag" j)
  | lines -> Alcotest.failf "expected one rejection, got %d" (List.length lines));
  let dropped = Router.stop r in
  Sim.shutdown sim;
  Alcotest.(check int) "queued job dropped" 1 dropped;
  let lines = List.map parse_line (collected c) in
  Alcotest.(check int) "both answered" 2 (List.length lines);
  let j0 = List.find (fun j -> get_int "id" j = 0) lines in
  Alcotest.(check string) "dropped line" "dropped" (get_str "type" j0);
  (* after stop, submissions answer draining *)
  Router.submit r ~respond:(respond_to c) (job_line ());
  let j2 =
    List.find (fun j -> get_int "id" j = 2) (List.map parse_line (collected c))
  in
  Alcotest.(check string) "draining after stop" "draining" (get_str "reason" j2);
  Alcotest.(check int) "draining counted" 1 (Router.stats r).Router.st_draining

(* The two daemons share one admission front: the same script against a
   never-started server and a never-started router (whose backend is never
   connected) must give every id the same answer type and reason, in the
   same order, and agree on the shared counters. Job 3 sits in the
   one-deep queue, job 4 overflows it, [stop] drops job 3, and job 5
   arrives after shutdown. *)
let test_admission_parity () =
  let kind k = Fmt.str "{\"schema\":\"agrid-job/1\",\"kind\":\"%s\"}" k in
  let script =
    [ `Line "garbage"; `Line (kind "health"); `Line (kind "stats");
      `Line (job_line ()); `Line (job_line ()); `Stop; `Line (job_line ()) ]
  in
  let play submit stop =
    let c = collector () in
    List.iter
      (function `Line l -> submit ~respond:(respond_to c) l | `Stop -> stop ())
      script;
    collected c
  in
  let serve () =
    let s = Server.create ~workers:1 ~queue_capacity:1 () in
    let lines = play (Server.submit s) (fun () -> ignore (Server.stop s)) in
    let st = Server.stats s in
    ( lines,
      Server.
        [ st.s_requests; st.s_malformed; st.s_health; st.s_stats; st.s_accepted;
          st.s_queue_full; st.s_draining; st.s_dropped ] )
  in
  let router () =
    let never = { Router.name = "never"; connect = (fun () -> failwith "connected") } in
    let r = Router.create { quick_config with Router.queue_capacity = 1 } [ never ] in
    let lines = play (Router.submit r) (fun () -> ignore (Router.stop r)) in
    let st = Router.stats r in
    ( lines,
      Router.
        [ st.st_requests; st.st_malformed; st.st_health; st.st_stats; st.st_accepted;
          st.st_queue_full; st.st_draining; st.st_dropped ] )
  in
  let expected =
    [ (0, "rejected", Some "malformed"); (1, "health", None); (2, "stats", None);
      (4, "rejected", Some "queue_full"); (3, "dropped", None);
      (5, "rejected", Some "draining") ]
  in
  let counters =
    List.map
      (fun (name, run) ->
        let lines, counters = run () in
        let answers =
          List.map
            (fun l ->
              let j = parse_line l in
              (get_int "id" j, get_str "type" j, Json.get_string "reason" j))
            lines
        in
        Alcotest.(check (list (triple int string (option string))))
          (name ^ ": one answer per id, in arrival order") expected answers;
        counters)
      [ ("serve", serve); ("router", router) ]
  in
  Alcotest.(check (list (list int))) "shared counters agree"
    [ [ 6; 1; 1; 1; 1; 1; 1; 1 ]; [ 6; 1; 1; 1; 1; 1; 1; 1 ] ]
    counters

let test_router_obs_counters () =
  let sink = Sink.create () in
  let sims = [ Sim.create "b0"; Sim.create "b1" ] in
  let r = start_router ~obs:sink sims in
  let c = collector () in
  for i = 0 to 3 do
    Router.submit r ~respond:(respond_to c) (job_line ~seed:(700 + i) ())
  done;
  Router.drain r;
  List.iter Sim.shutdown sims;
  let counter name =
    match List.assoc_opt name (Sink.metrics sink) with
    | Some (Registry.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "fleet/requests" 4 (counter "fleet/requests");
  Alcotest.(check int) "fleet/accepted" 4 (counter "fleet/accepted");
  Alcotest.(check int) "fleet/dispatches" 4 (counter "fleet/dispatches");
  Alcotest.(check int) "fleet/completed" 4 (counter "fleet/completed");
  (* two connect-time probes, plus whatever the maintenance loop sent *)
  Alcotest.(check bool) "fleet/probes >= 2" true (counter "fleet/probes" >= 2);
  (match List.assoc_opt "fleet/latency_s" (Sink.metrics sink) with
  | Some (Registry.Histogram h) ->
      Alcotest.(check int) "latency observations" 4 (Agrid_obs.Hist.count h)
  | _ -> Alcotest.fail "fleet/latency_s histogram missing");
  match List.assoc_opt "fleet/probe_s/b0" (Sink.metrics sink) with
  | Some (Registry.Histogram _) -> ()
  | _ -> Alcotest.fail "fleet/probe_s/b0 histogram missing"

(* Per-layer gate on the router hop: for sequential jobs over one
   backend, the client round trip minus the backend's own relayed
   [latency_s] is what the router adds (admission, dispatch, two socket
   hops, relay). A dispatcher that polls its admission queue makes this
   bimodal: a job that lands while the dispatcher is awake goes straight
   through, one that lands while it sleeps waits out the polling tick
   (>= 1 ms). Depending on the phase, the median alone can fall on either
   side of the bound, so the upper quartile is gated too. *)
let test_router_round_trip_overhead () =
  let sim = Sim.create "b0" in
  let r = start_router [ sim ] in
  let replies = Agrid_par.Parallel.Chan.create ~capacity:1 in
  let respond line =
    ignore (Agrid_par.Parallel.Chan.try_push replies (Agrid_obs.Clock.now_s (), line))
  in
  let line = job_line () in
  let overheads =
    Array.init 200 (fun _ ->
        let t0 = Agrid_obs.Clock.now_s () in
        Router.submit r ~respond line;
        match Agrid_par.Parallel.Chan.try_pop replies ~timeout_s:10. with
        | `Popped (t1, reply) ->
            let j = parse_line reply in
            Alcotest.(check string) "type" "result" (get_str "type" j);
            let backend_s =
              match Json.get_float "latency_s" j with
              | Some s -> s
              | None -> Alcotest.failf "result without latency_s: %s" reply
            in
            t1 -. t0 -. backend_s
        | `Timeout | `Closed -> Alcotest.fail "no reply within 10 s")
  in
  Router.drain r;
  Sim.shutdown sim;
  Array.sort Float.compare overheads;
  let quantile_ms q = 1e3 *. overheads.(int_of_float (q *. 199.)) in
  List.iter
    (fun (name, q) ->
      if quantile_ms q >= 0.5 then
        Alcotest.failf "router round-trip overhead %s %.3f ms (limit 0.5 ms)" name
          (quantile_ms q))
    [ ("median", 0.5); ("p75", 0.75) ]

(* ---- stats request: live snapshot with per-backend health ---- *)

let test_router_stats_request () =
  let tracer = Agrid_obs.Trace.create ~nonce:quick_config.Router.seed () in
  let sims = [ Sim.create "b0"; Sim.create "b1" ] in
  let r = start_router ~trace:tracer sims in
  let c = collector () in
  for i = 0 to 3 do
    Router.submit r ~respond:(respond_to c) (job_line ~seed:(800 + i) ())
  done;
  Router.drain r;
  let sc = collector () in
  Router.submit r ~respond:(respond_to sc)
    "{\"schema\":\"agrid-job/1\",\"kind\":\"stats\"}";
  (* answered synchronously: no waiting on the dispatcher *)
  (match collected sc with
  | [ line ] -> (
      match Codec.parse_stats line with
      | Error msg -> Alcotest.failf "stats line rejected: %s on %S" msg line
      | Ok s ->
          Alcotest.(check string) "role" "router" s.Codec.ss_role;
          Alcotest.(check int) "workers = backend count" 2 s.Codec.ss_workers;
          Alcotest.(check int) "accepted" 4 s.Codec.ss_accepted;
          Alcotest.(check int) "completed" 4 s.Codec.ss_completed;
          Alcotest.(check bool) "window rate positive" true (s.Codec.ss_rate > 0.);
          Alcotest.(check bool) "rolling p95 finite" true
            (Float.is_finite s.Codec.ss_p95_s);
          Alcotest.(check (list string)) "both backends listed" [ "b0"; "b1" ]
            (List.sort compare
               (List.map (fun (n, _, _) -> n) s.Codec.ss_backends));
          List.iter
            (fun (n, h, inflight) ->
              (* the aggressive quick-config probe timeouts can flap a
                 backend's health right after drain, so only pin the
                 domain, not the value *)
              Alcotest.(check bool) (n ^ " health is typed") true
                (List.mem h [ "healthy"; "degraded"; "dead" ]);
              Alcotest.(check int) (n ^ " idle") 0 inflight)
            s.Codec.ss_backends;
          Alcotest.(check bool) "trace ring populated" true
            (s.Codec.ss_trace_events > 0))
  | lines -> Alcotest.failf "expected one stats response, got %d" (List.length lines));
  List.iter Sim.shutdown sims;
  let stats = Router.stats r in
  Alcotest.(check int) "stats requests counted" 1 stats.Router.st_stats

(* ---- end-to-end trace timelines through the router ---- *)

let test_router_trace_timelines () =
  let module Trace = Agrid_obs.Trace in
  let nonce = quick_config.Router.seed in
  let tracer = Trace.create ~nonce () in
  let sim = Sim.create "b0" in
  let r = start_router ~trace:tracer [ sim ] in
  let c = collector () in
  Router.submit r ~respond:(respond_to c) (job_line ~seed:900 ());
  eventually "result arrives" (fun () -> List.length (collected c) = 1);
  (* now the ambiguous path: wedge the backend with a job in flight *)
  Sim.wedge sim;
  Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "ambiguous") ());
  eventually "maybe_executed arrives" (fun () -> List.length (collected c) = 2);
  Router.drain r;
  Sim.unwedge sim;
  Sim.shutdown sim;
  let timeline job =
    List.filter (fun (e : Trace.event) -> e.Trace.ev_job = job)
      (Trace.events tracer)
  in
  (* job 0 completed normally: enqueue -> dispatch -> respond(result),
     all under the id derived from (router seed, job id) *)
  let t0 = timeline 0 in
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check string) "derived trace id"
        (Trace.id_of ~nonce ~job:0) e.Trace.ev_trace)
    t0;
  (match List.map (fun (e : Trace.event) -> e.Trace.ev_kind) t0 with
  | [ Trace.Enqueue; Trace.Dispatch { backend = "b0"; attempt = 1 };
      Trace.Respond { outcome = "result" } ] -> ()
  | kinds ->
      Alcotest.failf "unexpected result timeline: %s"
        (String.concat " -> " (List.map Trace.kind_to_string kinds)));
  (* job 1 was ambiguous: the timeline must show the full
     dispatch -> death-detect -> resolve arc *)
  (match List.map (fun (e : Trace.event) -> e.Trace.ev_kind) (timeline 1) with
  | [ Trace.Enqueue; Trace.Dispatch { backend = "b0"; _ }; Trace.Death { backend = "b0" };
      Trace.Respond { outcome = "maybe_executed" } ] -> ()
  | kinds ->
      Alcotest.failf "unexpected ambiguous timeline: %s"
        (String.concat " -> " (List.map Trace.kind_to_string kinds)));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tracer)

(* A backend that answers the health probe with some other line fails
   the handshake with a reason that names the answer's type and quotes
   its first 80 bytes, and nothing past them. *)
let test_router_probe_names_bad_answer () =
  let line = Codec.dropped_line ~id:7 ~tag:(Some (String.make 100 'x')) in
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = line ^ "\n" in
  ignore (Unix.write_substring theirs payload 0 (String.length payload));
  let r = Router.create quick_config [ { Router.name = "b0"; connect = (fun () -> ours) } ] in
  let result = Router.start r in
  ignore (Router.stop r);
  Unix.close theirs;
  match result with
  | Ok () -> Alcotest.fail "router started over a backend that never answered health"
  | Error msg ->
      let has s = Testlib.contains msg s in
      Alcotest.(check bool) ("names the type: " ^ msg) true (has "(type dropped)");
      Alcotest.(check bool) ("quotes 80 bytes: " ^ msg) true
        (has (String.escaped (String.sub line 0 80) ^ "\""));
      Alcotest.(check bool) ("stops at 80 bytes: " ^ msg) false
        (has (String.escaped (String.sub line 0 81)))

(* A stranded worker's late result must never reach a later connection.
   Each round wedges the backend with a job in flight, lets the router's
   probe timeouts give up on the connection, then lifts the wedge and
   shuts the backend down: the worker flushes its result while the next
   round makes its socketpair, so a result written into a reused fd
   number would answer that round's health handshake ([start_router]
   fails on any non-health answer). *)
let test_sim_no_late_response_after_shutdown () =
  for round = 1 to 12 do
    let sim = Sim.create "b0" in
    let r = start_router [ sim ] in
    let c = collector () in
    Sim.wedge sim;
    Router.submit r ~respond:(respond_to c) (job_line ~tag:(Some "stranded") ());
    eventually (Fmt.str "round %d: maybe_executed response" round) (fun () ->
        List.length (collected c) = 1);
    Router.drain r;
    Sim.unwedge sim;
    Sim.shutdown sim;
    Alcotest.(check string)
      (Fmt.str "round %d: in-flight job reported ambiguous" round)
      "maybe_executed"
      (get_str "type" (parse_line (List.hd (collected c))))
  done

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "policy: selection tiers and ties" `Quick
          test_policy_select;
        Alcotest.test_case "policy: backoff doubling, cap, jitter" `Quick
          test_policy_backoff;
        Alcotest.test_case "policy: probe classification" `Quick
          test_policy_classify;
        Alcotest.test_case "codec: maybe_executed round-trip" `Quick
          test_codec_maybe_executed_roundtrip;
        Alcotest.test_case "codec: all_backends_saturated round-trip" `Quick
          test_codec_saturated_roundtrip;
        Alcotest.test_case "codec: rejection reasons round-trip" `Quick
          test_codec_reason_roundtrip;
        Alcotest.test_case "codec: fleet health line" `Quick test_codec_fleet_health;
        Alcotest.test_case "codec: identity rewrite preserves payload" `Quick
          test_codec_with_identity;
        Alcotest.test_case "codec: parse_response is total" `Quick
          test_codec_parse_response_total;
        Alcotest.test_case "router: balances, relays, monotone ids" `Quick
          test_router_balances_and_relays;
        Alcotest.test_case "router: wedged backend -> maybe_executed" `Quick
          test_router_wedged_backend_becomes_maybe_executed;
        Alcotest.test_case "router: all dead -> saturated, then recovers" `Quick
          test_router_all_dead_saturates_then_recovers;
        Alcotest.test_case "router: admission backpressure and stop" `Quick
          test_router_admission_backpressure_and_drop;
        Alcotest.test_case "serve and router: admission parity" `Quick
          test_admission_parity;
        Alcotest.test_case "router: fleet telemetry" `Quick test_router_obs_counters;
        Alcotest.test_case "router: round-trip overhead" `Quick
          test_router_round_trip_overhead;
        Alcotest.test_case "router: stats request snapshot" `Quick
          test_router_stats_request;
        Alcotest.test_case "router: trace timelines" `Quick
          test_router_trace_timelines;
        Alcotest.test_case "router: probe names a non-health answer" `Quick
          test_router_probe_names_bad_answer;
        Alcotest.test_case "sim: no late response after shutdown" `Quick
          test_sim_no_late_response_after_shutdown;
      ] );
  ]
