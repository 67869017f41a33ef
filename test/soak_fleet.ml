(* Fault-injection soak for the fleet router: a few hundred mixed
   requests through a router over several in-process [Sim] backends,
   while a chaos thread kills backends mid-flight (they accept
   reconnects, i.e. "restart"), wedges one (open socket, nothing flows —
   the probe-timeout failure mode) and lets the router fail over.

   Hard invariants, asserted at volume:
   - zero lost responses: every request gets exactly one response line,
     whatever was killed under it;
   - monotone ids: the response id set is exactly 0..n-1;
   - typed outcomes only: every job resolves as a result, a typed
     rejection (malformed / queue_full / all_backends_saturated) or a
     typed maybe_executed — never silence, never a duplicate;
   - bit-identity: every completed job's result (status, t100, mapped,
     aet, final clock, TEC bit pattern) equals a one-shot
     single-threaded Job.run of the same spec — failover re-routing adds
     fault tolerance, never divergence;
   - at-most-once: ambiguous jobs are reported maybe_executed, not
     re-run (enforced structurally: one response per id, and the router
     never re-dispatches a Sent entry);
   - the injected faults actually bit: at least one failover or
     maybe_executed across the run;
   - no descriptor leaks: the process has no more open descriptors once
     the router is drained and the backends are shut down than it had
     before the router was created (kills, reconnects and the
     dispatcher's wake pipe included; skipped where /proc is absent).

   Every job request carries a tenant (gold or bronze, alternating) and
   every backend caps bronze admissions: a backend at its bronze cap
   rejects with the typed tenant_quota reason, which the router treats
   as retry-safe and shops to a peer — clients only ever see result /
   saturated / maybe_executed, and no backend's bronze high-water mark
   exceeds the cap, across kills and restarts.

   Writes every response plus a summary as JSONL (--out) for the CI
   artifact. Exit 0 on success, 1 with diagnostics, 2 on watchdog
   timeout. *)

module Json = Agrid_obs.Json
module Rng = Agrid_prng.Splitmix64
module Serialize = Agrid_workload.Serialize
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Router = Agrid_fleet.Router
module Sim = Agrid_fleet.Sim
module Trace = Agrid_obs.Trace

let jobs = ref 300
let backends = ref 3
let kills = ref 2
let workers = ref 2
let seed = ref 42
let out = ref ""
let trace_out = ref ""
let chrome_out = ref ""
let timeout = ref 180.

let specs_args =
  [
    ("--jobs", Arg.Set_int jobs, "N  number of requests (default 300)");
    ("--backends", Arg.Set_int backends, "N  simulated backends (default 3)");
    ("--kills", Arg.Set_int kills, "N  backend kills to inject (default 2)");
    ("--workers", Arg.Set_int workers, "N  worker domains per backend (default 2)");
    ("--seed", Arg.Set_int seed, "N  request-mix seed (default 42)");
    ("--out", Arg.Set_string out, "FILE  write responses + summary as JSONL");
    ( "--trace-out",
      Arg.Set_string trace_out,
      "FILE  write the router's agrid-trace/1 JSONL" );
    ( "--chrome-out",
      Arg.Set_string chrome_out,
      "FILE  write the Chrome trace-event JSON (the CI artifact)" );
    ("--timeout", Arg.Set_float timeout, "S  watchdog seconds (default 180)");
  ]

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let pick rng arr = arr.(Rng.next_int rng (Array.length arr))

type expected =
  | Exp_result of Job.spec
  | Exp_malformed
  | Exp_health

let make_request rng i =
  match i mod 10 with
  | 0 ->
      let junk =
        pick rng
          [|
            "total garbage";
            "{\"schema\":\"agrid-job/1\"";
            "{\"schema\":\"agrid-job/9\",\"kind\":\"job\"}";
            "{\"schema\":\"agrid-job/1\",\"kind\":\"job\",\"scenario\":{\"kind\":\"generated\"}}";
          |]
      in
      (Exp_malformed, junk)
  | 1 -> (Exp_health, "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}")
  | n ->
      let scenario =
        Serialize.Generated
          {
            seed = Rng.next_int rng 10_000;
            scale = 0.03;
            etc_index = Rng.next_int rng 3;
            dag_index = Rng.next_int rng 3;
            case = pick rng [| Agrid_platform.Grid.A; Agrid_platform.Grid.B |];
          }
      in
      let spec =
        {
          (Job.default scenario) with
          Job.tag = Some (Fmt.str "fleet-%d" i);
          tenant = Some (if i mod 2 = 0 then "gold" else "bronze");
          alpha = float_of_int (300 + Rng.next_int rng 200) /. 1000.;
          beta = float_of_int (100 + Rng.next_int rng 300) /. 1000.;
          variant = pick rng [| Agrid_core.Slrh.V1; Agrid_core.Slrh.V3 |];
          mode = pick rng [| `Rescan; `Soa |];
          events =
            (if n = 3 then
               Agrid_churn.Event.parse_trace
                 (Fmt.str "leave@%d:1,rejoin@%d:1"
                    (40 + Rng.next_int rng 40)
                    (120 + Rng.next_int rng 60))
             else []);
          deadline_ms = (if n = 4 then Some 0. else None);
        }
      in
      (Exp_result spec, Json.to_string (Codec.job_to_json spec))

let () =
  Arg.parse specs_args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "soak_fleet: fault-injection test of the agrid fleet router";
  let n = !jobs in
  let n_backends = max 1 !backends in
  let n_kills = max 0 !kills in
  let rng = Rng.of_int !seed in
  let requests = Array.init n (fun i -> make_request rng i) in
  let lock = Mutex.create () in
  let responses = ref [] in
  let n_responses = ref 0 in
  let respond line =
    Mutex.lock lock;
    responses := line :: !responses;
    incr n_responses;
    Mutex.unlock lock
  in
  let response_count () =
    Mutex.lock lock;
    let c = !n_responses in
    Mutex.unlock lock;
    c
  in
  let bronze_cap = 2 in
  let sims =
    List.init n_backends (fun i ->
        Sim.create ~workers:!workers
          ~tenant_caps:[ ("bronze", bronze_cap) ]
          (Fmt.str "b%d" i))
  in
  let sim_arr = Array.of_list sims in
  let config =
    {
      Router.default_config with
      Router.queue_capacity = max 1 n;
      inflight_cap = 4;
      max_attempts = 6;
      backoff_base_s = 0.02;
      backoff_cap_s = 0.2;
      probe_interval_s = 0.1;
      probe_timeout_s = 0.2;
      dead_after_timeouts = 2;
      connect_backoff_s = 0.1;
      seed = !seed;
    }
  in
  (* every event retained (assert dropped = 0 below): the per-job timeline
     checks need complete histories, not a ring window *)
  let tracer =
    Trace.create ~nonce:!seed
      ~capacity:(max 4096 (n * 64))
      ~pending_cap:(max 1024 n) ~exemplars:4 ()
  in
  let fds_before = open_fds () in
  let router = Router.create ~trace:tracer config (List.map Sim.spec sims) in
  (match Router.start router with
  | Ok () -> ()
  | Error msg ->
      Fmt.epr "soak-fleet: router failed to start: %s@." msg;
      exit 1);

  (* watchdog: a hung drain must fail the CI step, not wedge it *)
  let finished = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         let deadline = Unix.gettimeofday () +. !timeout in
         while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
           Thread.delay 0.25
         done;
         if not (Atomic.get finished) then begin
           Fmt.epr "soak-fleet: watchdog expired after %.0fs (%d/%d responses)@."
             !timeout (response_count ()) n;
           exit 2
         end)
       ());

  (* chaos thread: kill backends (each waits for in-flight work so the
     failover/ambiguity paths actually trigger), and wedge b0 for a
     stretch so probe timeouts — not EOF — must detect the failure *)
  let wait_for ?(ceiling_s = 30.) pred =
    let deadline = Unix.gettimeofday () +. ceiling_s in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done
  in
  let inflight_of name =
    match
      List.find_opt (fun (n', _, _) -> n' = name) (Router.health_snapshot router)
    with
    | Some (_, _, inflight) -> inflight
    | None -> 0
  in
  let chaos =
    Thread.create
      (fun () ->
        let wedge_target = if n_backends > 1 then Some sim_arr.(0) else None in
        (match wedge_target with
        | Some s ->
            wait_for (fun () -> response_count () >= n / 4);
            wait_for (fun () -> inflight_of (Sim.name s) > 0);
            Sim.wedge s;
            wait_for (fun () -> response_count () >= n / 4 * 2);
            Sim.unwedge s
        | None -> ());
        for k = 0 to n_kills - 1 do
          (* never kill b0 (the wedge target) while several backends
             exist; cycle over the rest *)
          let victim =
            if n_backends = 1 then sim_arr.(0)
            else sim_arr.(1 + (k mod (n_backends - 1)))
          in
          wait_for (fun () -> response_count () >= (k + 1) * n / (n_kills + 2));
          wait_for (fun () -> inflight_of (Sim.name victim) > 0);
          Sim.kill victim
        done)
      ()
  in

  let t0 = Unix.gettimeofday () in
  Array.iter (fun (_, line) -> Router.submit router ~respond line) requests;
  Thread.join chaos;
  Router.drain router;
  let wall = Unix.gettimeofday () -. t0 in
  Atomic.set finished true;
  let stats = Router.stats router in
  List.iter Sim.unwedge sims;
  List.iter Sim.shutdown sims;
  let fds_after = open_fds () in

  let responses = List.rev !responses in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in

  (* zero lost responses *)
  if List.length responses <> n then
    fail "expected %d responses, got %d" n (List.length responses);

  let parsed =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | j -> Some j
        | exception Json.Parse_error msg ->
            fail "unparseable response %S: %s" line msg;
            None)
      responses
  in

  (* monotone ids: exactly 0..n-1, each exactly once *)
  let ids =
    List.sort compare
      (List.filter_map
         (fun j ->
           match Json.get_int "id" j with
           | Some id -> Some id
           | None ->
               fail "response without id: %s" (Json.to_string j);
               None)
         parsed)
  in
  if ids <> List.init n Fun.id then
    fail "response ids are not exactly 0..%d (got %d distinct)" (n - 1)
      (List.length (List.sort_uniq compare ids));

  (* per-request contracts + bit-identity replay of completed jobs *)
  let n_replayed = ref 0
  and n_maybe = ref 0
  and n_saturated = ref 0
  and n_deadline = ref 0 in
  List.iter
    (fun j ->
      match Json.get_int "id" j with
      | None -> ()
      | Some id when id < 0 || id >= n -> fail "out-of-range id %d" id
      | Some id -> (
          let expected, _ = requests.(id) in
          let ty = Option.value ~default:"?" (Json.get_string "type" j) in
          let reason = Json.get_string "reason" j in
          match expected with
          | Exp_malformed ->
              if not (ty = "rejected" && reason = Some "malformed") then
                fail "request %d: expected malformed rejection, got %s" id ty
          | Exp_health ->
              if ty <> "health" then
                fail "request %d: expected health, got %s" id ty
          | Exp_result spec -> (
              match ty with
              | "maybe_executed" ->
                  incr n_maybe;
                  if Json.get_string "tag" j <> spec.Job.tag then
                    fail "request %d: maybe_executed lost the client tag" id
              | "rejected" when reason = Some "all_backends_saturated" ->
                  incr n_saturated
              | "result" -> (
                  let status =
                    Option.value ~default:"?" (Json.get_string "status" j)
                  in
                  if Json.get_string "tag" j <> spec.Job.tag then
                    fail "request %d: result lost the client tag" id;
                  if Json.get_string "backend" j = None then
                    fail "request %d: result does not name its backend" id;
                  match spec.Job.deadline_ms with
                  | Some ms when ms <= 0. ->
                      incr n_deadline;
                      if status <> "deadline_missed" then
                        fail "request %d: impossible deadline reported %S" id
                          status
                  | _ ->
                      (* replay one-shot, single-threaded; the served
                         output must match bit for bit even if the job
                         was re-routed across backends *)
                      let oneshot = Job.run spec in
                      incr n_replayed;
                      let check name served expected =
                        if served <> expected then
                          fail "request %d: %s diverges (served %s, one-shot %s)"
                            id name served expected
                      in
                      check "status" status
                        (Job.status_to_string oneshot.Job.status);
                      check "tec_bits"
                        (Option.value ~default:"?"
                           (Json.get_string "tec_bits" j))
                        (Fmt.str "%Lx" (Int64.bits_of_float oneshot.Job.tec));
                      List.iter
                        (fun (name, got) ->
                          check name
                            (string_of_int
                               (Option.value ~default:min_int
                                  (Json.get_int name j)))
                            (string_of_int got))
                        [
                          ("t100", oneshot.Job.t100);
                          ("mapped", oneshot.Job.mapped);
                          ("aet", oneshot.Job.aet);
                          ("final_clock", oneshot.Job.final_clock);
                          ("discarded", oneshot.Job.n_discarded);
                        ])
              | other ->
                  fail "request %d: untyped outcome %S (reason %a)" id other
                    Fmt.(option string)
                    reason)))
    parsed;

  (match (fds_before, fds_after) with
  | Some before, Some after when after > before ->
      fail "open descriptors grew from %d to %d across the run" before after
  | _ -> ());
  if stats.Router.st_respond_errors <> 0 then
    fail "%d responses failed to deliver" stats.Router.st_respond_errors;
  if stats.Router.st_dropped <> 0 then
    fail "graceful drain dropped %d jobs" stats.Router.st_dropped;
  if n_kills > 0 && stats.Router.st_failovers + stats.Router.st_maybe_executed = 0
  then
    fail
      "injected %d kill(s) against in-flight backends but saw no failover and \
       no maybe_executed"
      n_kills;
  List.iter
    (fun s ->
      let hwm = Sim.tenant_high_water s "bronze" in
      if hwm > bronze_cap then
        fail "backend %s: bronze admission high water %d exceeds cap %d"
          (Sim.name s) hwm bronze_cap)
    sims;
  if List.for_all (fun s -> Sim.tenant_high_water s "bronze" = 0) sims then
    fail "no backend ever admitted a bronze job (cap check is vacuous)";

  (* ---- per-job trace timelines: every accepted job has a complete
     enqueue..respond history under its derived trace id, and ambiguous
     jobs show the full dispatch -> death-detect -> resolve arc *)
  if Trace.dropped tracer <> 0 then
    fail "trace ring dropped %d events despite full-retention capacity"
      (Trace.dropped tracer);
  let timelines = Hashtbl.create n in
  List.iter
    (fun (e : Trace.event) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt timelines e.Trace.ev_job) in
      Hashtbl.replace timelines e.Trace.ev_job (e :: l))
    (Trace.events tracer);
  let ty_by_id = Hashtbl.create n in
  List.iter
    (fun j ->
      match (Json.get_int "id" j, Json.get_string "type" j) with
      | Some id, Some ty ->
          Hashtbl.replace ty_by_id id (ty, Json.get_string "reason" j)
      | _ -> ())
    parsed;
  let n_traced_maybe = ref 0 in
  Hashtbl.iter
    (fun id evs ->
      let evs = List.rev evs in
      let kinds = List.map (fun (e : Trace.event) -> e.Trace.ev_kind) evs in
      let expected_tid = Trace.id_for tracer id in
      List.iter
        (fun (e : Trace.event) ->
          if e.Trace.ev_trace <> expected_tid then
            fail "job %d: trace id %S (expected %S)" id e.Trace.ev_trace
              expected_tid)
        evs;
      (match kinds with
      | Trace.Enqueue :: _ -> ()
      | _ -> fail "job %d: timeline does not start with enqueue" id);
      let outcome =
        match List.rev kinds with
        | Trace.Respond { outcome } :: _ -> Some outcome
        | _ ->
            fail "job %d: timeline does not end with respond" id;
            None
      in
      let has p = List.exists p kinds in
      let index_of p =
        let rec go i = function
          | [] -> None
          | k :: tl -> if p k then Some i else go (i + 1) tl
        in
        go 0 kinds
      in
      match (Hashtbl.find_opt ty_by_id id, outcome) with
      | None, _ -> fail "job %d: traced but never answered" id
      | _, None -> ()
      | Some ("result", _), Some outcome ->
          if outcome <> "result" then
            fail "job %d: answered result but trace closed with %S" id outcome;
          if not (has (function Trace.Dispatch _ -> true | _ -> false)) then
            fail "job %d: completed without a dispatch event" id
      | Some ("maybe_executed", _), Some outcome ->
          incr n_traced_maybe;
          if outcome <> "maybe_executed" then
            fail "job %d: answered maybe_executed but trace closed with %S" id
              outcome;
          (match
             ( index_of (function Trace.Dispatch _ -> true | _ -> false),
               index_of (function Trace.Death _ -> true | _ -> false) )
           with
          | Some di, Some de when di < de -> ()
          | _ ->
              fail
                "job %d: maybe_executed timeline lacks the dispatch -> death \
                 -> resolve arc"
                id)
      | Some ("rejected", Some "all_backends_saturated"), Some outcome ->
          if outcome <> "all_backends_saturated" then
            fail "job %d: answered saturated but trace closed with %S" id
              outcome
      | Some ("dropped", _), Some outcome ->
          if outcome <> "dropped" then
            fail "job %d: answered dropped but trace closed with %S" id outcome
      | Some (ty, _), Some _ ->
          fail "job %d: unexpectedly traced for a %S answer" id ty)
    timelines;
  Hashtbl.iter
    (fun id (ty, reason) ->
      let should_be_traced =
        match (ty, reason) with
        | ("result" | "maybe_executed"), _ -> true
        | "rejected", Some "all_backends_saturated" -> true
        | _ -> false
      in
      if should_be_traced && not (Hashtbl.mem timelines id) then
        fail "job %d (%s): no trace timeline" id ty)
    ty_by_id;
  if n_kills > 0 && stats.Router.st_maybe_executed > 0 && !n_traced_maybe = 0
  then fail "maybe_executed responses exist but none carried a trace timeline";

  let summary =
    Json.Obj
      [
        ("schema", Json.Str "agrid-soak-fleet/1");
        ("jobs", Json.Int n);
        ("backends", Json.Int n_backends);
        ("kills", Json.Int n_kills);
        ("seed", Json.Int !seed);
        ("accepted", Json.Int stats.Router.st_accepted);
        ("completed", Json.Int stats.Router.st_completed);
        ("retries", Json.Int stats.Router.st_retries);
        ("failovers", Json.Int stats.Router.st_failovers);
        ("maybe_executed", Json.Int stats.Router.st_maybe_executed);
        ("saturated", Json.Int stats.Router.st_saturated);
        ("probes", Json.Int stats.Router.st_probes);
        ("probe_timeouts", Json.Int stats.Router.st_probe_timeouts);
        ("replayed", Json.Int !n_replayed);
        ("deadline_missed", Json.Int !n_deadline);
        ( "incarnations",
          Json.Arr
            (List.map (fun s -> Json.Int (Sim.incarnations s)) sims) );
        ("tenant_bronze_cap", Json.Int bronze_cap);
        ( "tenant_bronze_high_water",
          Json.Arr
            (List.map
               (fun s -> Json.Int (Sim.tenant_high_water s "bronze"))
               sims) );
        ( "reconnects",
          Json.Arr
            (List.map
               (fun b -> Json.Int b.Router.bs_reconnects)
               stats.Router.st_backends) );
        ("wall_s", Json.Flt wall);
        ( "open_fds",
          Json.Arr
            (List.map
               (function Some n -> Json.Int n | None -> Json.Null)
               [ fds_before; fds_after ]) );
        ("trace_events", Json.Int (Trace.length tracer));
        ("trace_dropped", Json.Int (Trace.dropped tracer));
        ("failures", Json.Int (List.length !failures));
        ("ok", Json.Bool (!failures = []));
      ]
  in
  if !out <> "" then begin
    let oc = open_out !out in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      responses;
    output_string oc (Json.to_string summary);
    output_char oc '\n';
    close_out oc
  end;
  if !trace_out <> "" then Trace.write_jsonl !trace_out tracer;
  if !chrome_out <> "" then begin
    let oc = open_out !chrome_out in
    output_string oc
      (Trace.chrome_of_lines (Result.get_ok (Trace.parse_jsonl (Trace.jsonl_lines tracer))));
    output_char oc '\n';
    close_out oc
  end;
  Fmt.pr
    "soak-fleet: %d requests over %d backends (%d kills): %d replayed \
     bit-identical, %d maybe_executed, %d saturated, %d failovers, %d \
     retries, %.2fs@."
    n n_backends n_kills !n_replayed !n_maybe !n_saturated
    stats.Router.st_failovers stats.Router.st_retries wall;
  match List.rev !failures with
  | [] ->
      Fmt.pr "soak-fleet: OK@.";
      exit 0
  | fs ->
      List.iter (fun f -> Fmt.epr "soak-fleet: FAIL %s@." f) fs;
      exit 1
