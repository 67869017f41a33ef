(* Soak harness for the scenario service: submit a few hundred mixed
   requests (varied generator seeds and weights, churn traces, impossible
   deadlines, malformed lines, health probes) through an in-process
   server over a real worker-domain pool, then assert the service
   invariants the tier-1 suite pins in miniature, at volume:

   - zero lost responses: every request line gets exactly one response;
   - monotone ids: the response id set is exactly 0..n-1;
   - bit-identity: every accepted job's result (status, T100, AET, final
     clock, TEC bit pattern) equals a one-shot single-threaded Job.run of
     the same spec — the pool adds concurrency, never divergence;
   - impossible deadlines report deadline_missed instead of hanging;
   - graceful shutdown drains everything in flight.

   Writes every response plus a summary as JSONL (--out) for the CI
   artifact. Exit 0 on success, 1 with diagnostics on any violation. *)

module Json = Agrid_obs.Json
module Rng = Agrid_prng.Splitmix64
module Serialize = Agrid_workload.Serialize
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Server = Agrid_serve.Server

let jobs = ref 200
let workers = ref 4
let seed = ref 42
let out = ref ""
let queue = ref 0 (* 0 = sized to the job count: the soak exercises volume, the tier-1 suite pins overflow *)

let specs_args =
  [
    ("--jobs", Arg.Set_int jobs, "N  number of requests (default 200)");
    ("--workers", Arg.Set_int workers, "N  worker domains (default 4)");
    ("--seed", Arg.Set_int seed, "N  request-mix seed (default 42)");
    ("--queue", Arg.Set_int queue, "N  queue capacity (default: --jobs)");
    ("--out", Arg.Set_string out, "FILE  write responses + summary as JSONL");
  ]

let pick rng arr = arr.(Rng.next_int rng (Array.length arr))

type expected =
  | Exp_result of Job.spec  (* job accepted for execution *)
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
            "{\"schema\":\"agrid-job/1\",\"kind\":\"job\",\"scenario\":{\"kind\":\"generated\",\"seed\":1,\"scale\":-3,\"etc\":0,\"dag\":0,\"case\":\"A\"}}";
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
          Job.tag = Some (Fmt.str "soak-%d" i);
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
    "soak_serve: volume test of the agrid scenario service";
  let n = !jobs in
  let queue_capacity = if !queue <= 0 then max 1 n else !queue in
  let rng = Rng.of_int !seed in
  let requests = Array.init n (fun i -> make_request rng i) in
  let lock = Mutex.create () in
  let responses = ref [] in
  let respond line =
    Mutex.lock lock;
    responses := line :: !responses;
    Mutex.unlock lock
  in
  let server = Server.create ~workers:!workers ~queue_capacity () in
  Server.start server;
  let t0 = Unix.gettimeofday () in
  Array.iter (fun (_, line) -> Server.submit server ~respond line) requests;
  Server.drain server;
  let wall = Unix.gettimeofday () -. t0 in
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

  (* per-request contracts + bit-identity replay *)
  let n_replayed = ref 0 and n_deadline = ref 0 and n_errored = ref 0 in
  List.iter
    (fun j ->
      match Json.get_int "id" j with
      | None -> ()
      | Some id when id < 0 || id >= n -> fail "out-of-range id %d" id
      | Some id -> (
          let expected, _ = requests.(id) in
          let ty = Option.value ~default:"?" (Json.get_string "type" j) in
          match expected with
          | Exp_malformed ->
              if
                not
                  (ty = "rejected"
                  && Json.get_string "reason" j = Some "malformed")
              then fail "request %d: expected malformed rejection, got %s" id ty
          | Exp_health ->
              if ty <> "health" then fail "request %d: expected health, got %s" id ty
          | Exp_result spec -> (
              if ty <> "result" then fail "request %d: expected result, got %s" id ty
              else
                let status = Option.value ~default:"?" (Json.get_string "status" j) in
                match spec.Job.deadline_ms with
                | Some ms when ms <= 0. ->
                    incr n_deadline;
                    if status <> "deadline_missed" then
                      fail "request %d: impossible deadline reported %S" id status
                | _ ->
                    if status = "errored" then incr n_errored;
                    (* replay one-shot, single-threaded; served output must
                       match bit for bit *)
                    let oneshot = Job.run spec in
                    incr n_replayed;
                    let check name served expected =
                      if served <> expected then
                        fail "request %d: %s diverges (served %s, one-shot %s)" id
                          name served expected
                    in
                    check "status"
                      (Option.value ~default:"?" (Json.get_string "status" j))
                      (Job.status_to_string oneshot.Job.status);
                    check "tec_bits"
                      (Option.value ~default:"?" (Json.get_string "tec_bits" j))
                      (Fmt.str "%Lx" (Int64.bits_of_float oneshot.Job.tec));
                    List.iter
                      (fun (name, got) ->
                        check name
                          (string_of_int (Option.value ~default:min_int (Json.get_int name j)))
                          (string_of_int got))
                      [
                        ("t100", oneshot.Job.t100);
                        ("mapped", oneshot.Job.mapped);
                        ("aet", oneshot.Job.aet);
                        ("final_clock", oneshot.Job.final_clock);
                        ("discarded", oneshot.Job.n_discarded);
                      ])))
    parsed;

  let stats = Server.stats server in
  if stats.Server.s_dropped <> 0 then
    fail "graceful drain dropped %d jobs" stats.Server.s_dropped;
  if stats.Server.s_respond_errors <> 0 then
    fail "%d responses failed to deliver" stats.Server.s_respond_errors;

  (* ---- two-tenant mixed traffic stream ------------------------------
     A second, tenant-capped server run: gold (high-priority, uncapped)
     and bronze (admission-capped) interleaved by the tenant layer's
     deterministic Poisson arrival streams and submitted back to back, so
     bronze overflows its cap while workers are busy. Invariants at
     volume: zero lost responses; the response ids partition exactly into
     each tenant's submissions; gold is never rejected; bronze resolves
     as a result or a typed tenant_quota rejection, nothing else; and the
     server-side high-water mark never overshoots the cap even with
     submissions racing worker completions. *)
  let bronze_cap = 2 in
  let arrivals =
    Agrid_tenant.Arrivals.generate ~seed:(!seed + 1) ~horizon:2000
      [ Agrid_tenant.Arrivals.Poisson 0.02; Agrid_tenant.Arrivals.Poisson 0.02 ]
  in
  let tenant_of_stream s = if s = 0 then "gold" else "bronze" in
  let trequests =
    Array.of_list
      (List.map
         (fun (a : Agrid_tenant.Arrivals.arrival) ->
           let tenant = tenant_of_stream a.Agrid_tenant.Arrivals.stream in
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
               Job.tag = Some (Fmt.str "%s-%d" tenant a.Agrid_tenant.Arrivals.seq);
               tenant = Some tenant;
             }
           in
           (tenant, Json.to_string (Codec.job_to_json spec)))
         arrivals)
  in
  let m = Array.length trequests in
  let tresponses = ref [] in
  let trespond line =
    Mutex.lock lock;
    tresponses := line :: !tresponses;
    Mutex.unlock lock
  in
  let tserver =
    Server.create ~workers:!workers ~queue_capacity:(max 1 m)
      ~tenant_caps:[ ("bronze", bronze_cap) ] ()
  in
  Server.start tserver;
  Array.iter (fun (_, line) -> Server.submit tserver ~respond:trespond line) trequests;
  Server.drain tserver;
  let tresponses = List.rev !tresponses in
  if List.length tresponses <> m then
    fail "tenant stream: expected %d responses, got %d" m (List.length tresponses);
  let tparsed =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | j -> Some j
        | exception Json.Parse_error msg ->
            fail "tenant stream: unparseable response %S: %s" line msg;
            None)
      tresponses
  in
  let ids_of_tenant responses tenant =
    List.sort compare
      (List.filter_map
         (fun j ->
           match Json.get_int "id" j with
           | Some id when id >= 0 && id < m && fst trequests.(id) = tenant ->
               Some id
           | _ -> None)
         responses)
  in
  let submitted_ids tenant =
    List.filter (fun id -> fst trequests.(id) = tenant) (List.init m Fun.id)
  in
  let n_quota = ref 0 in
  List.iter
    (fun j ->
      match Json.get_int "id" j with
      | None -> fail "tenant stream: response without id: %s" (Json.to_string j)
      | Some id when id < 0 || id >= m ->
          fail "tenant stream: out-of-range id %d" id
      | Some id -> (
          let tenant = fst trequests.(id) in
          let ty = Option.value ~default:"?" (Json.get_string "type" j) in
          let reason = Json.get_string "reason" j in
          match (tenant, ty, reason) with
          | _, "result", _ -> ()
          | "bronze", "rejected", Some "tenant_quota" -> incr n_quota
          | _ ->
              fail "tenant stream: %s request %d resolved as %s (reason %a)"
                tenant id ty
                Fmt.(option string)
                reason))
    tparsed;
  List.iter
    (fun tenant ->
      if ids_of_tenant tparsed tenant <> submitted_ids tenant then
        fail "tenant stream: %s response ids do not match its submissions"
          tenant)
    [ "gold"; "bronze" ];
  let tstats = Server.stats tserver in
  let bronze_hwm = Server.tenant_high_water tserver "bronze" in
  if bronze_hwm > bronze_cap then
    fail "tenant stream: bronze high water %d exceeds cap %d" bronze_hwm
      bronze_cap;
  if bronze_hwm < 1 then fail "tenant stream: no bronze job was ever admitted";
  if Server.tenant_outstanding tserver "bronze" <> 0 then
    fail "tenant stream: %d bronze jobs still outstanding after drain"
      (Server.tenant_outstanding tserver "bronze");
  if Server.tenant_rejected tserver "bronze" <> !n_quota then
    fail "tenant stream: server counts %d bronze quota rejections, responses %d"
      (Server.tenant_rejected tserver "bronze")
      !n_quota;
  if tstats.Server.s_tenant_quota <> !n_quota then
    fail "tenant stream: stats count %d quota rejections, responses %d"
      tstats.Server.s_tenant_quota !n_quota;
  if tstats.Server.s_dropped <> 0 then
    fail "tenant stream: graceful drain dropped %d jobs" tstats.Server.s_dropped;

  let summary =
    Json.Obj
      [
        ("schema", Json.Str "agrid-soak-serve/1");
        ("jobs", Json.Int n);
        ("workers", Json.Int !workers);
        ("queue_capacity", Json.Int queue_capacity);
        ("seed", Json.Int !seed);
        ("accepted", Json.Int stats.Server.s_accepted);
        ("completed", Json.Int stats.Server.s_completed);
        ("deadline_missed", Json.Int stats.Server.s_deadline_missed);
        ("errored", Json.Int stats.Server.s_errored);
        ("malformed", Json.Int stats.Server.s_malformed);
        ("health", Json.Int stats.Server.s_health);
        ("replayed", Json.Int !n_replayed);
        ("queue_high_water", Json.Int stats.Server.s_queue_high_water);
        ("tenant_jobs", Json.Int m);
        ("tenant_gold_jobs", Json.Int (List.length (submitted_ids "gold")));
        ("tenant_bronze_jobs", Json.Int (List.length (submitted_ids "bronze")));
        ("tenant_bronze_cap", Json.Int bronze_cap);
        ("tenant_bronze_high_water", Json.Int bronze_hwm);
        ("tenant_quota_rejected", Json.Int !n_quota);
        ("wall_s", Json.Flt wall);
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
      (responses @ tresponses);
    output_string oc (Json.to_string summary);
    output_char oc '\n';
    close_out oc
  end;
  Fmt.pr "soak: %d requests, %d replayed bit-identical, %d deadline_missed, %d errored, %.2fs over %d workers (queue high water %d)@."
    n !n_replayed !n_deadline !n_errored wall !workers
    stats.Server.s_queue_high_water;
  Fmt.pr
    "soak: tenant stream %d jobs (gold %d, bronze %d capped at %d): %d \
     quota-rejected, bronze high water %d@."
    m
    (List.length (submitted_ids "gold"))
    (List.length (submitted_ids "bronze"))
    bronze_cap !n_quota bronze_hwm;
  match List.rev !failures with
  | [] ->
      Fmt.pr "soak: OK@.";
      exit 0
  | fs ->
      List.iter (fun f -> Fmt.epr "soak: FAIL %s@." f) fs;
      exit 1
