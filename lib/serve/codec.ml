(* The agrid-job/1 wire format. One JSON object per line each way; every
   parser is total (hostile bytes -> Error, never an exception) because
   the server feeds it raw socket/stdin lines and the fuzz suite feeds it
   mutated garbage. *)

module Json = Agrid_obs.Json
module Serialize = Agrid_workload.Serialize
module Slrh = Agrid_core.Slrh
module Event = Agrid_churn.Event

let schema = "agrid-job/1"
let result_schema = "agrid-job-result/1"
let stats_schema = "agrid-stats/1"

type request = Submit of Job.spec | Health | Stats

let ( let* ) = Result.bind

let variant_to_string = function
  | Slrh.V1 -> "slrh1"
  | Slrh.V2 -> "slrh2"
  | Slrh.V3 -> "slrh3"

let variant_of_string = function
  | "slrh1" -> Ok Slrh.V1
  | "slrh2" -> Ok Slrh.V2
  | "slrh3" -> Ok Slrh.V3
  | s -> Error (Fmt.str "unknown heuristic %S (expected slrh1|slrh2|slrh3)" s)

(* Optional field with a default: absent is fine, present-but-mistyped is
   an error — silently defaulting a typo would run the wrong job. *)
let opt_field j name conv ~default =
  match Json.member name j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Fmt.str "field %S is mistyped" name))

let parse_job j =
  let* scenario =
    match Json.member "scenario" j with
    | None -> Error "job is missing the \"scenario\" field"
    | Some s -> Serialize.scenario_ref_of_json s
  in
  let* tag =
    opt_field j "tag" (fun v -> Option.map Option.some (Json.to_string_value v))
      ~default:None
  in
  let* alpha = opt_field j "alpha" Json.to_float ~default:0.4 in
  let* beta = opt_field j "beta" Json.to_float ~default:0.3 in
  let* variant_name = opt_field j "heuristic" Json.to_string_value ~default:"slrh1" in
  let* variant = variant_of_string variant_name in
  let* delta_t = opt_field j "delta_t" Json.to_int ~default:10 in
  let* horizon = opt_field j "horizon" Json.to_int ~default:100 in
  let* mode_name = opt_field j "mode" Json.to_string_value ~default:"soa" in
  let* mode =
    match Slrh.mode_of_string mode_name with
    | Some m -> Ok m
    | None ->
        Error (Fmt.str "unknown mode %S (expected rescan|soa)" mode_name)
  in
  let* trace = opt_field j "events" Json.to_string_value ~default:"" in
  let* events =
    if trace = "" then Ok []
    else
      match Event.parse_trace trace with
      | events -> Ok events
      | exception Invalid_argument msg -> Error (Fmt.str "bad events trace: %s" msg)
  in
  let* deadline_ms =
    opt_field j "deadline_ms" (fun v -> Option.map Option.some (Json.to_float v))
      ~default:None
  in
  let* trace_id =
    opt_field j "trace" (fun v -> Option.map Option.some (Json.to_string_value v))
      ~default:None
  in
  let* tenant =
    opt_field j "tenant" (fun v -> Option.map Option.some (Json.to_string_value v))
      ~default:None
  in
  let* scheduler = opt_field j "scheduler" Json.to_string_value ~default:"slrh" in
  let opt_float name =
    opt_field j name (fun v -> Option.map Option.some (Json.to_float v)) ~default:None
  in
  let* adapt_step = opt_field j "adapt_step" Json.to_float ~default:0.5 in
  let* adapt_init_energy = opt_float "adapt_init_energy" in
  let* adapt_init_aet = opt_float "adapt_init_aet" in
  let* adapt_prob = opt_float "adapt_prob" in
  let* adapt_sigma = opt_field j "adapt_sigma" Json.to_float ~default:0.1 in
  let* adapt =
    match scheduler with
    | "slrh" -> Ok None
    | "adaptive-lagrange" ->
        let spec =
          {
            Agrid_core.Adapt.step_c = adapt_step;
            init_energy = adapt_init_energy;
            init_aet = adapt_init_aet;
            prob = adapt_prob;
            sigma = adapt_sigma;
          }
        in
        let* () = Agrid_core.Adapt.validate_spec spec in
        Ok (Some spec)
    | s -> Error (Fmt.str "unknown scheduler %S (expected slrh|adaptive-lagrange)" s)
  in
  if delta_t <= 0 then Error "delta_t must be positive"
  else if horizon <= 0 then Error "horizon must be positive"
  else if not (Float.is_finite alpha && Float.is_finite beta) then
    Error "alpha/beta must be finite"
  else if adapt <> None && alpha <= 0. then
    Error "adaptive-lagrange needs alpha > 0 to seed the multipliers"
  else
    Ok
      (Submit
         {
           Job.tag;
           trace_id;
           tenant;
           scenario;
           alpha;
           beta;
           variant;
           delta_t;
           horizon;
           mode;
           adapt;
           events;
           deadline_ms;
         })

let parse_request line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error (Fmt.str "not JSON: %s" msg)
  | j -> (
      match Json.get_string "schema" j with
      | Some s when s = schema -> (
          match Json.get_string "kind" j with
          | Some "job" -> parse_job j
          | Some "health" -> Ok Health
          | Some "stats" -> Ok Stats
          | Some other -> Error (Fmt.str "unknown kind %S" other)
          | None -> Error "missing \"kind\" field")
      | Some other -> Error (Fmt.str "unsupported schema %S (expected %S)" other schema)
      | None -> Error (Fmt.str "missing \"schema\" field (expected %S)" schema))

let job_to_json (s : Job.spec) =
  Json.Obj
    ([
      ("schema", Json.Str schema);
      ("kind", Json.Str "job");
      ("tag", match s.Job.tag with None -> Json.Null | Some t -> Json.Str t);
      ("scenario", Serialize.scenario_ref_to_json s.Job.scenario);
      ("alpha", Json.Flt s.Job.alpha);
      ("beta", Json.Flt s.Job.beta);
      ("heuristic", Json.Str (variant_to_string s.Job.variant));
      ("delta_t", Json.Int s.Job.delta_t);
      ("horizon", Json.Int s.Job.horizon);
      ("mode", Json.Str (Slrh.mode_to_string s.Job.mode));
      ("events", Json.Str (Event.trace_to_string s.Job.events));
      ( "deadline_ms",
        match s.Job.deadline_ms with None -> Json.Null | Some ms -> Json.Flt ms );
    ]
    @
    (* the adapt knobs ride along only for adaptive jobs, keeping
       constant-weight job lines byte-identical to the historical wire
       format *)
    (match s.Job.adapt with
    | None -> []
    | Some a ->
        let opt name v =
          match v with None -> [] | Some x -> [ (name, Json.Flt x) ]
        in
        [
          ("scheduler", Json.Str "adaptive-lagrange");
          ("adapt_step", Json.Flt a.Agrid_core.Adapt.step_c);
        ]
        @ opt "adapt_init_energy" a.Agrid_core.Adapt.init_energy
        @ opt "adapt_init_aet" a.Agrid_core.Adapt.init_aet
        @ opt "adapt_prob" a.Agrid_core.Adapt.prob
        @ [ ("adapt_sigma", Json.Flt a.Agrid_core.Adapt.sigma) ])
    @
    (* like the adapt knobs: the trace id appears only when a tracing
       router stamped one, so untraced job lines stay byte-identical *)
    (match s.Job.trace_id with
    | None -> []
    | Some tid -> [ ("trace", Json.Str tid) ])
    @
    (* same discipline for the tenant: untenanted job lines keep the
       historical wire format byte for byte *)
    match s.Job.tenant with
    | None -> []
    | Some ten -> [ ("tenant", Json.Str ten) ])

(* ---- responses ---- *)

let base ~id ty rest =
  Json.Obj
    (("schema", Json.Str result_schema)
    :: ("type", Json.Str ty)
    :: ("id", Json.Int id)
    :: rest)

let tag_field tag = ("tag", match tag with None -> Json.Null | Some t -> Json.Str t)

let result_line ~id ~tag ~latency_s (r : Job.result) =
  let error_fields =
    match r.Job.status with
    | Job.Errored msg -> [ ("error", Json.Str msg) ]
    | Job.Ok_done | Job.Deadline_missed -> []
  in
  Json.to_string
    (base ~id "result"
       ([
          tag_field tag;
          ("status", Json.Str (Job.status_to_string r.Job.status));
        ]
       @ error_fields
       @ [
           ("completed", Json.Bool r.Job.completed);
           ("t100", Json.Int r.Job.t100);
           ("mapped", Json.Int r.Job.mapped);
           ("aet", Json.Int r.Job.aet);
           ("tec", Json.Flt r.Job.tec);
           (* %.9g loses float bits; the soak harness's bit-identity check
              needs the exact TEC through the wire *)
           ("tec_bits", Json.Str (Printf.sprintf "%Lx" (Int64.bits_of_float r.Job.tec)));
           ("energy", Json.Arr (Array.to_list (Array.map (fun e -> Json.Flt e) r.Job.energy_remaining)));
           ("final_clock", Json.Int r.Job.final_clock);
           ("discarded", Json.Int r.Job.n_discarded);
           ("sunk_energy", Json.Flt r.Job.sunk_energy);
           ("wall_s", Json.Flt r.Job.wall_seconds);
           ("latency_s", Json.Flt latency_s);
         ]))

let reason_to_string = function
  | `Queue_full -> "queue_full"
  | `Malformed -> "malformed"
  | `Draining -> "draining"
  | `All_backends_saturated -> "all_backends_saturated"
  | `Tenant_quota -> "tenant_quota"

let reason_of_string = function
  | "queue_full" -> Some `Queue_full
  | "malformed" -> Some `Malformed
  | "draining" -> Some `Draining
  | "all_backends_saturated" -> Some `All_backends_saturated
  | "tenant_quota" -> Some `Tenant_quota
  | _ -> None

(* [?tag]: queue_full/draining rejections echo the job's tag so a relaying
   router can correlate them back to the in-flight entry; malformed lines
   carry no tag because no tag ever parsed. *)
let rejected_line ?(tag = None) ~id ~reason ~detail () =
  Json.to_string
    (base ~id "rejected"
       [
         ("reason", Json.Str (reason_to_string reason));
         tag_field tag;
         ("detail", Json.Str detail);
       ])

let dropped_line ~id ~tag = Json.to_string (base ~id "dropped" [ tag_field tag ])

let maybe_executed_line ~id ~tag ~backend ~detail =
  Json.to_string
    (base ~id "maybe_executed"
       [
         tag_field tag;
         ("status", Json.Str "maybe_executed");
         ("backend", Json.Str backend);
         ("detail", Json.Str detail);
       ])

let health_line ~id ~uptime_s ~queue_depth ~workers ~accepted ~completed =
  Json.to_string
    (base ~id "health"
       [
         ("uptime_s", Json.Flt uptime_s);
         ("queue_depth", Json.Int queue_depth);
         ("workers", Json.Int workers);
         ("accepted", Json.Int accepted);
         ("completed", Json.Int completed);
       ])

let fleet_health_line ~id ~uptime_s ~queue_depth ~backends ~accepted ~completed =
  Json.to_string
    (base ~id "health"
       [
         ("uptime_s", Json.Flt uptime_s);
         ("queue_depth", Json.Int queue_depth);
         ( "backends",
           Json.Arr
             (List.map
                (fun (name, health, in_flight) ->
                  Json.Obj
                    [
                      ("name", Json.Str name);
                      ("health", Json.Str health);
                      ("in_flight", Json.Int in_flight);
                    ])
                backends) );
         ("accepted", Json.Int accepted);
         ("completed", Json.Int completed);
       ])

(* ---- agrid-stats/1 live snapshots ---- *)

type stats_snapshot = {
  ss_role : string;  (* "serve" | "router" *)
  ss_id : int;
  ss_uptime_s : float;
  ss_queue_depth : int;
  ss_in_flight : int;
  ss_workers : int;  (* serve: worker domains; router: backend count *)
  ss_accepted : int;
  ss_completed : int;
  ss_window_s : float;
  ss_rate : float;  (* completions per second over the window *)
  ss_p50_s : float;  (* rolling latency quantiles; NaN = nothing observed *)
  ss_p95_s : float;
  ss_p99_s : float;
  ss_backends : (string * string * int) list;  (* name, health, in_flight *)
  ss_trace_events : int;  (* trace-ring occupancy; 0 when tracing is off *)
  ss_trace_dropped : int;
  ss_trace_exemplars : int;
}

let stats_line s =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str stats_schema);
         ("type", Json.Str "stats");
         ("role", Json.Str s.ss_role);
         ("id", Json.Int s.ss_id);
         ("uptime_s", Json.Flt s.ss_uptime_s);
         ("queue_depth", Json.Int s.ss_queue_depth);
         ("in_flight", Json.Int s.ss_in_flight);
         ("workers", Json.Int s.ss_workers);
         ("accepted", Json.Int s.ss_accepted);
         ("completed", Json.Int s.ss_completed);
         ("window_s", Json.Flt s.ss_window_s);
         ("rate", Json.Flt s.ss_rate);
         ("p50_s", Json.Flt s.ss_p50_s);
         ("p95_s", Json.Flt s.ss_p95_s);
         ("p99_s", Json.Flt s.ss_p99_s);
         ( "backends",
           Json.Arr
             (List.map
                (fun (name, health, in_flight) ->
                  Json.Obj
                    [
                      ("name", Json.Str name);
                      ("health", Json.Str health);
                      ("in_flight", Json.Int in_flight);
                    ])
                s.ss_backends) );
         ("trace_events", Json.Int s.ss_trace_events);
         ("trace_dropped", Json.Int s.ss_trace_dropped);
         ("trace_exemplars", Json.Int s.ss_trace_exemplars);
       ])

(* Total parser for stats lines — `agrid top` feeds it whatever the socket
   answered, and the fuzz suite feeds it mutated garbage. Non-finite
   quantiles travel as JSON null and come back as NaN. *)
let parse_stats line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error (Fmt.str "not JSON: %s" msg)
  | j -> (
      match Json.get_string "schema" j with
      | Some s when s = stats_schema ->
          let int name =
            match Json.get_int name j with
            | Some i -> Ok i
            | None -> Error (Fmt.str "stats line is missing the %S field" name)
          in
          (* NaN (serialized null) is a legal quantile, so absent and
             mistyped both map through to_float's widening rules. *)
          let flt name =
            match Json.member name j with
            | None -> Error (Fmt.str "stats line is missing the %S field" name)
            | Some v -> (
                match Json.to_float v with
                | Some f -> Ok f
                | None -> Error (Fmt.str "stats field %S is mistyped" name))
          in
          let* ss_role =
            match Json.get_string "role" j with
            | Some r -> Ok r
            | None -> Error "stats line is missing the \"role\" field"
          in
          let* ss_id = int "id" in
          let* ss_uptime_s = flt "uptime_s" in
          let* ss_queue_depth = int "queue_depth" in
          let* ss_in_flight = int "in_flight" in
          let* ss_workers = int "workers" in
          let* ss_accepted = int "accepted" in
          let* ss_completed = int "completed" in
          let* ss_window_s = flt "window_s" in
          let* ss_rate = flt "rate" in
          let* ss_p50_s = flt "p50_s" in
          let* ss_p95_s = flt "p95_s" in
          let* ss_p99_s = flt "p99_s" in
          let* ss_backends =
            match Json.member "backends" j with
            | Some (Json.Arr bs) ->
                List.fold_left
                  (fun acc b ->
                    let* acc = acc in
                    let* name =
                      match Json.get_string "name" b with
                      | Some n -> Ok n
                      | None -> Error "backend entry is missing the \"name\" field"
                    in
                    let* health =
                      match Json.get_string "health" b with
                      | Some h -> Ok h
                      | None -> Error "backend entry is missing the \"health\" field"
                    in
                    let* in_flight =
                      match Json.get_int "in_flight" b with
                      | Some i -> Ok i
                      | None ->
                          Error "backend entry is missing the \"in_flight\" field"
                    in
                    Ok ((name, health, in_flight) :: acc))
                  (Ok []) bs
                |> Result.map List.rev
            | Some _ -> Error "stats field \"backends\" is not an array"
            | None -> Error "stats line is missing the \"backends\" field"
          in
          let* ss_trace_events = int "trace_events" in
          let* ss_trace_dropped = int "trace_dropped" in
          let* ss_trace_exemplars = int "trace_exemplars" in
          Ok
            {
              ss_role;
              ss_id;
              ss_uptime_s;
              ss_queue_depth;
              ss_in_flight;
              ss_workers;
              ss_accepted;
              ss_completed;
              ss_window_s;
              ss_rate;
              ss_p50_s;
              ss_p95_s;
              ss_p99_s;
              ss_backends;
              ss_trace_events;
              ss_trace_dropped;
              ss_trace_exemplars;
            }
      | Some other ->
          Error (Fmt.str "unsupported schema %S (expected %S)" other stats_schema)
      | None -> Error (Fmt.str "missing \"schema\" field (expected %S)" stats_schema))

(* ---- response parsing (the router's view of a backend's lines) ---- *)

type response = {
  r_type : [ `Result | `Rejected | `Dropped | `Health | `Maybe_executed ];
  r_id : int;
  r_tag : string option;
  r_status : string option;
  r_reason : [ `Queue_full | `Malformed | `Draining | `All_backends_saturated | `Tenant_quota ] option;
  r_json : Json.t;
}

let parse_response line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error (Fmt.str "not JSON: %s" msg)
  | j -> (
      match Json.get_string "schema" j with
      | Some s when s = result_schema -> (
          let* ty =
            match Json.get_string "type" j with
            | Some "result" -> Ok `Result
            | Some "rejected" -> Ok `Rejected
            | Some "dropped" -> Ok `Dropped
            | Some "health" -> Ok `Health
            | Some "maybe_executed" -> Ok `Maybe_executed
            | Some other -> Error (Fmt.str "unknown response type %S" other)
            | None -> Error "missing \"type\" field"
          in
          let* id =
            match Json.get_int "id" j with
            | Some id -> Ok id
            | None -> Error "missing \"id\" field"
          in
          let* reason =
            match (ty, Json.get_string "reason" j) with
            | `Rejected, Some r -> (
                match reason_of_string r with
                | Some r -> Ok (Some r)
                | None -> Error (Fmt.str "unknown rejection reason %S" r))
            | `Rejected, None -> Error "rejected line without a reason"
            | _, _ -> Ok None
          in
          Ok
            {
              r_type = ty;
              r_id = id;
              r_tag = Json.get_string "tag" j;
              r_status = Json.get_string "status" j;
              r_reason = reason;
              r_json = j;
            })
      | Some other ->
          Error (Fmt.str "unsupported schema %S (expected %S)" other result_schema)
      | None -> Error (Fmt.str "missing \"schema\" field (expected %S)" result_schema))

(* Rewrite a relayed response's identity: the router's upstream id and the
   client's original tag replace the backend-local ones, and the backend's
   name is recorded. Everything else (tec_bits included) passes through
   the parsed value untouched. *)
let with_identity ~id ~tag ~backend json =
  match json with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "id" -> (k, Json.Int id)
             | "tag" -> tag_field tag
             | _ -> (k, v))
           fields
        @ [ ("backend", Json.Str backend) ])
  | other -> other
