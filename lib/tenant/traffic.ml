open Agrid_workload
open Agrid_core
module Json = Agrid_obs.Json
module Event = Agrid_churn.Event

type tenant_stream = { ts_tenant : Tenant.t; ts_process : Arrivals.process }

type spec = {
  seed : int;
  horizon : int;
  scale : float;
  case : Agrid_platform.Grid.case;
  chunk : int;
  events : Event.t list;
  tenants : tenant_stream list;
}

let default_scale = 0.05
let default_chunk = 8

let make_spec ~seed ~horizon tenants =
  {
    seed;
    horizon;
    scale = default_scale;
    case = Agrid_platform.Grid.A;
    chunk = default_chunk;
    events = [];
    tenants;
  }

let grid_machines case =
  Agrid_platform.Grid.n_machines (Agrid_platform.Grid.of_case case)

let validate spec =
  let ( let* ) = Result.bind in
  let* () = if spec.horizon > 0 then Ok () else Error "horizon must be positive" in
  let* () =
    if Float.is_finite spec.scale && spec.scale > 0. && spec.scale <= 1. then Ok ()
    else Error (Fmt.str "scale must be in (0, 1], got %g" spec.scale)
  in
  let* () = if spec.chunk > 0 then Ok () else Error "chunk must be positive" in
  let* () =
    match spec.tenants with [] -> Error "at least one tenant required" | _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc ts ->
        let* () = acc in
        let* () = Tenant.validate ts.ts_tenant in
        Result.map_error
          (fun m -> Fmt.str "tenant %s: %s" ts.ts_tenant.Tenant.id m)
          (Arrivals.validate_process ~horizon:spec.horizon ts.ts_process))
      (Ok ()) spec.tenants
  in
  let ids = List.map (fun ts -> ts.ts_tenant.Tenant.id) spec.tenants in
  let* () =
    if List.length (List.sort_uniq compare ids) = List.length ids then Ok ()
    else Error "tenant ids must be distinct"
  in
  let* () =
    List.fold_left
      (fun acc (e : Event.t) ->
        let* () = acc in
        match e.kind with
        | Event.Leave _ | Event.Rejoin _ -> Ok ()
        | Event.Battery_shock _ | Event.Bandwidth_degrade _ ->
            Error
              (Fmt.str "traffic events support leave/rejoin only, got %s"
                 (Event.kind_name e.kind)))
      (Ok ()) spec.events
  in
  try
    Event.validate ~n_machines:(grid_machines spec.case) (Event.sort spec.events);
    Ok ()
  with Invalid_argument m -> Error m

(* --- wire format (agrid-traffic/1) ------------------------------------- *)

let schema = "agrid-traffic/1"

let case_of_string = function
  | "A" -> Ok Agrid_platform.Grid.A
  | "B" -> Ok Agrid_platform.Grid.B
  | "C" -> Ok Agrid_platform.Grid.C
  | s -> Error (Fmt.str "unknown case %S (expected A|B|C)" s)

(* Field accessors that distinguish "absent" (defaultable) from
   "present but mistyped" (an error) — the same totality discipline as
   the job codec. *)
let opt_field j name conv ~default =
  match Json.member name j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Fmt.str "field %S has the wrong type" name))

let req_field j name conv =
  match Json.member name j with
  | None | Some Json.Null -> Error (Fmt.str "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Fmt.str "field %S has the wrong type" name))

let tenant_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj _ ->
      let* id = req_field j "id" Json.to_string_value in
      let* prio_s = opt_field j "priority" Json.to_string_value ~default:"normal" in
      let* priority =
        Result.map_error (fun m -> Fmt.str "tenant %s: %s" id m)
          (Tenant.priority_of_string prio_s)
      in
      let* rate = opt_field j "rate" Json.to_float ~default:nan in
      let* trace =
        opt_field j "trace"
          (fun v ->
            Option.bind (Json.to_list v) (fun l ->
                let ints = List.filter_map Json.to_int l in
                if List.length ints = List.length l then Some ints else None))
          ~default:[]
      in
      let* process =
        match (Float.is_nan rate, Json.member "trace" j) with
        | false, Some _ -> Error (Fmt.str "tenant %s: rate and trace are exclusive" id)
        | false, None -> Ok (Arrivals.Poisson rate)
        | true, Some _ -> Ok (Arrivals.Trace trace)
        | true, None -> Error (Fmt.str "tenant %s: one of rate or trace required" id)
      in
      let* energy_quota =
        opt_field j "energy_quota" (fun v -> Option.map Option.some (Json.to_float v))
          ~default:None
      in
      let* machine_quota =
        opt_field j "machines" (fun v -> Option.map Option.some (Json.to_int v))
          ~default:None
      in
      Ok
        {
          ts_tenant = Tenant.make ?priority:(Some priority) ?energy_quota ?machine_quota id;
          ts_process = process;
        }
  | _ -> Error "tenant entries must be objects"

let spec_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj _ ->
      let* () =
        match Json.get_string "schema" j with
        | Some s when s = schema -> Ok ()
        | Some s -> Error (Fmt.str "unexpected schema %S (expected %S)" s schema)
        | None -> Error (Fmt.str "missing field \"schema\" (expected %S)" schema)
      in
      let* seed = req_field j "seed" Json.to_int in
      let* horizon = req_field j "horizon" Json.to_int in
      let* scale = opt_field j "scale" Json.to_float ~default:default_scale in
      let* case_s = opt_field j "case" Json.to_string_value ~default:"A" in
      let* case = case_of_string case_s in
      let* chunk = opt_field j "chunk" Json.to_int ~default:default_chunk in
      let* events_s = opt_field j "events" Json.to_string_value ~default:"" in
      let* events =
        if events_s = "" then Ok []
        else
          try Ok (Event.parse_trace events_s)
          with Invalid_argument m -> Error (Fmt.str "events: %s" m)
      in
      let* tenants_j = req_field j "tenants" Json.to_list in
      let* tenants =
        List.fold_left
          (fun acc tj ->
            let* acc = acc in
            let* t = tenant_of_json tj in
            Ok (t :: acc))
          (Ok []) tenants_j
      in
      Ok { seed; horizon; scale; case; chunk; events; tenants = List.rev tenants }
  | _ -> Error "traffic spec must be a JSON object"

let spec_of_string s =
  let ( let* ) = Result.bind in
  let* j = try Ok (Json.parse s) with Json.Parse_error m -> Error m in
  let* spec = spec_of_json j in
  let* () = validate spec in
  Ok spec

(* --- engine ------------------------------------------------------------ *)

(* Per-application scenario seed: the campaign's golden-ratio mixing with
   the (stream, seq) coordinates, truncated to a positive int so it is a
   valid [Spec.seed] on every platform. *)
let app_seed spec ~stream ~seq =
  Int64.to_int
    (Int64.logand
       Int64.(
         add
           (mul (of_int spec.seed) 0x9E3779B97F4A7C15L)
           (add (mul (of_int (stream + 1)) 0xBF58476D1CE4E5B9L) (of_int (seq + 1))))
       0x3FFFFFFFL)

let app_workload spec ~stream ~seq =
  let s = Spec.scaled ~seed:(app_seed spec ~stream ~seq) ~factor:spec.scale () in
  Workload.build s ~etc_index:0 ~dag_index:0 ~case:spec.case

type served = {
  s_completed : bool;
  s_t100 : int;
  s_mapped : int;
  s_aet : int;
  s_tec : float;
  s_final_clock : int;
  s_reservation : float;
  s_steps : int;
  s_started : int;
  s_finished : int;
}

type verdict = Rejected of Feasibility.quota_breach | Served of served

type app = {
  a_tenant : string;
  a_stream : int;
  a_seq : int;
  a_arrived : int;
  a_verdict : verdict;
}

type rollup = {
  r_id : string;
  r_priority : Tenant.priority;
  r_arrivals : int;
  r_admitted : int;
  r_rejected : int;
  r_completed : int;
  r_t100 : int;
  r_aet : int;
  r_tec : float;
  r_reserved : float;
  r_steps : int;
}

type outcome = {
  apps : app list;
  rollups : rollup list;
  fairness_gap : float;
  rounds : int;
  total_steps : int;
  final_time : int;
}

type live = {
  l_stream : int;
  l_app : int;  (* arrival index *)
  l_params : Slrh.params;
  l_sched : Agrid_sched.Schedule.t;
  l_tau : int;
  l_reservation : float;
  l_started : int;
  mutable l_clock : int;
  mutable l_steps : int;
}

let default_params_for ~tenant:_ ~seq:_ =
  Slrh.default_params (Objective.make_weights ~alpha:0.4 ~beta:0.3)

let run ?(obs = Agrid_obs.Sink.noop) ?(params_for = default_params_for) spec =
  (match validate spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Traffic.run: " ^ m));
  let tenants = Array.of_list spec.tenants in
  let n_t = Array.length tenants in
  let arrivals =
    Array.of_list
      (Arrivals.generate ~seed:spec.seed ~horizon:spec.horizon
         (List.map (fun ts -> ts.ts_process) spec.tenants))
  in
  let n_apps = Array.length arrivals in
  let verdicts = Array.make n_apps None in
  let n_machines = grid_machines spec.case in
  let events = ref (Event.sort spec.events) in
  let up = Array.make n_machines true in
  let used = Array.make n_t 0. in
  let steps_t = Array.make n_t 0 in
  let queues : live Queue.t array = Array.init n_t (fun _ -> Queue.create ()) in
  let live_count = ref 0 in
  let weights =
    Array.map (fun ts -> float_of_int (Tenant.weight ts.ts_tenant.Tenant.priority)) tenants
  in
  let drr = Drr.create ~quantum:(float_of_int spec.chunk) ~weights in
  let g = ref 0 in
  let total_steps = ref 0 in
  let max_gap = ref 0. in
  let last_rounds = ref 0 in
  let cont_backlogged = Array.make n_t true in
  let next_arrival = ref 0 in
  let backlogged i = not (Queue.is_empty queues.(i)) in
  let apply_due_events () =
    let rec go = function
      | ({ Event.at; kind } : Event.t) :: rest when at <= !g ->
          (match kind with
          | Event.Leave j -> up.(j) <- false
          | Event.Rejoin j -> up.(j) <- true
          | Event.Battery_shock _ | Event.Bandwidth_degrade _ -> ());
          go rest
      | rest -> events := rest
    in
    go !events
  in
  let next_event_at () =
    match !events with [] -> None | (e : Event.t) :: _ -> Some e.Event.at
  in
  (* The grant-time machine mask: quota prefix /\ availability. [None]
     when unrestricted, so the quota-free all-up case hands
     [continue_run] the exact argument the standalone path uses. *)
  let mask_for stream =
    let q = tenants.(stream).ts_tenant.Tenant.quota in
    let allowed = Feasibility.quota_machines q ~n_machines in
    if allowed >= n_machines && not (Array.exists not up) then None
    else Some (Array.init n_machines (fun j -> up.(j) && j < allowed))
  in
  let admit k =
    let a = arrivals.(k) in
    let ts = tenants.(a.Arrivals.stream) in
    let wl = app_workload spec ~stream:a.Arrivals.stream ~seq:a.Arrivals.seq in
    match Feasibility.admit_quota ts.ts_tenant.Tenant.quota ~used:used.(a.Arrivals.stream) wl with
    | Error breach -> verdicts.(k) <- Some (Rejected breach)
    | Ok r ->
        used.(a.Arrivals.stream) <- used.(a.Arrivals.stream) +. r;
        let params = params_for ~tenant:ts.ts_tenant ~seq:a.Arrivals.seq in
        Queue.push
          {
            l_stream = a.Arrivals.stream;
            l_app = k;
            l_params = params;
            l_sched = Agrid_sched.Schedule.create wl;
            l_tau = Workload.tau wl;
            l_reservation = r;
            l_started = !g;
            l_clock = 0;
            l_steps = 0;
          }
          queues.(a.Arrivals.stream);
        incr live_count
  in
  let finish live completed =
    let sched = live.l_sched in
    verdicts.(live.l_app) <-
      Some
        (Served
           {
             s_completed = completed;
             s_t100 = Agrid_sched.Schedule.n_primary sched;
             s_mapped = Agrid_sched.Schedule.n_mapped sched;
             s_aet = Agrid_sched.Schedule.aet sched;
             s_tec = Agrid_sched.Schedule.tec sched;
             s_final_clock = live.l_clock;
             s_reservation = live.l_reservation;
             s_steps = live.l_steps;
             s_started = live.l_started;
             s_finished = !g;
           });
    ignore (Queue.pop queues.(live.l_stream));
    decr live_count
  in
  let account live (o : Slrh.outcome) =
    let ran = o.Slrh.stats.Slrh.clock_steps in
    let dt = live.l_params.Slrh.delta_t in
    live.l_clock <- o.Slrh.final_clock;
    live.l_steps <- live.l_steps + ran;
    steps_t.(live.l_stream) <- steps_t.(live.l_stream) + ran;
    total_steps := !total_steps + ran;
    g := !g + (ran * dt);
    if o.Slrh.completed then finish live true
    else if live.l_clock > live.l_tau then finish live false
  in
  let grant live steps =
    let dt = live.l_params.Slrh.delta_t in
    let until = min (live.l_clock + (steps * dt) - 1) live.l_tau in
    let o =
      Slrh.continue_run ~start_clock:live.l_clock ?mask:(mask_for live.l_stream)
        ~until live.l_params live.l_sched
    in
    account live o
  in
  (* One live application, no pending arrivals, no future events: run it
     to completion in a single unchunked phase — the single-tenant
     steady state, bit-identical to [Slrh.run] (and allocation-identical:
     the SoA zero-allocation budget is measured through this path). *)
  let fast_path_ok () = !live_count = 1 && !next_arrival >= n_apps && !events = [] in
  let run_fast () =
    let rec find i = if backlogged i then Queue.peek queues.(i) else find (i + 1) in
    let live = find 0 in
    let o =
      Slrh.continue_run ~start_clock:live.l_clock ?mask:(mask_for live.l_stream)
        live.l_params live.l_sched
    in
    let completed = o.Slrh.completed in
    account live o;
    (* an unchunked run always ends the application *)
    if Option.is_none verdicts.(live.l_app) then finish live completed
  in
  while !next_arrival < n_apps || !live_count > 0 do
    apply_due_events ();
    while !next_arrival < n_apps && arrivals.(!next_arrival).Arrivals.at <= !g do
      admit !next_arrival;
      incr next_arrival
    done;
    if !live_count = 0 then begin
      if !next_arrival < n_apps then g := max !g arrivals.(!next_arrival).Arrivals.at
    end
    else if fast_path_ok () then run_fast ()
    else begin
      for i = 0 to n_t - 1 do
        if not (backlogged i) then cont_backlogged.(i) <- false
      done;
      match Drr.select drr ~backlogged ~cost:(float_of_int spec.chunk) with
      | None -> assert false (* live_count > 0 *)
      | Some i ->
          let live = Queue.peek queues.(i) in
          let dt = live.l_params.Slrh.delta_t in
          (* clip the grant at the next availability event so masks only
             change at grant boundaries *)
          let steps =
            match next_event_at () with
            | Some at when at > !g -> max 1 (min spec.chunk ((at - !g + dt - 1) / dt))
            | _ -> spec.chunk
          in
          grant live steps;
          if Drr.rounds drr > !last_rounds then begin
            let gap = Drr.weighted_gap drr ~over:(fun t -> cont_backlogged.(t)) in
            if gap > !max_gap then max_gap := gap;
            last_rounds := Drr.rounds drr;
            Array.iteri (fun t _ -> cont_backlogged.(t) <- backlogged t) cont_backlogged
          end
    end
  done;
  let apps =
    List.init n_apps (fun k ->
        let a = arrivals.(k) in
        {
          a_tenant = tenants.(a.Arrivals.stream).ts_tenant.Tenant.id;
          a_stream = a.Arrivals.stream;
          a_seq = a.Arrivals.seq;
          a_arrived = a.Arrivals.at;
          a_verdict =
            (match verdicts.(k) with
            | Some v -> v
            | None -> assert false (* every arrival is admitted or rejected *));
        })
  in
  let rollups =
    List.mapi
      (fun i ts ->
        let arr = ref 0
        and adm = ref 0
        and rej = ref 0
        and comp = ref 0
        and t100 = ref 0
        and aet = ref 0
        and tec = ref 0. in
        List.iter
          (fun a ->
            if a.a_stream = i then begin
              incr arr;
              match a.a_verdict with
              | Rejected _ -> incr rej
              | Served s ->
                  incr adm;
                  if s.s_completed then incr comp;
                  t100 := !t100 + s.s_t100;
                  aet := !aet + s.s_aet;
                  tec := !tec +. s.s_tec
            end)
          apps;
        {
          r_id = ts.ts_tenant.Tenant.id;
          r_priority = ts.ts_tenant.Tenant.priority;
          r_arrivals = !arr;
          r_admitted = !adm;
          r_rejected = !rej;
          r_completed = !comp;
          r_t100 = !t100;
          r_aet = !aet;
          r_tec = !tec;
          r_reserved = used.(i);
          r_steps = steps_t.(i);
        })
      spec.tenants
  in
  if Agrid_obs.Sink.enabled obs then begin
    List.iter
      (fun r ->
        let c name v = Agrid_obs.Sink.add obs (Fmt.str "tenant/%s/%s" r.r_id name) v in
        c "arrivals" r.r_arrivals;
        c "admitted" r.r_admitted;
        c "rejected" r.r_rejected;
        c "completed" r.r_completed;
        c "t100" r.r_t100;
        c "aet" r.r_aet;
        c "steps" r.r_steps;
        Agrid_obs.Sink.set_gauge obs (Fmt.str "tenant/%s/tec" r.r_id) r.r_tec;
        Agrid_obs.Sink.set_gauge obs (Fmt.str "tenant/%s/reserved" r.r_id) r.r_reserved)
      rollups;
    Agrid_obs.Sink.add obs "tenant/apps" n_apps;
    Agrid_obs.Sink.add obs "tenant/steps" !total_steps;
    Agrid_obs.Sink.add obs "tenant/rounds" (Drr.rounds drr);
    Agrid_obs.Sink.max_gauge obs "tenant/fairness_gap" !max_gap
  end;
  {
    apps;
    rollups;
    fairness_gap = !max_gap;
    rounds = Drr.rounds drr;
    total_steps = !total_steps;
    final_time = !g;
  }

let rollup_table outcome =
  let rows =
    List.map
      (fun r ->
        [
          r.r_id;
          Tenant.priority_to_string r.r_priority;
          string_of_int r.r_arrivals;
          string_of_int r.r_admitted;
          string_of_int r.r_rejected;
          string_of_int r.r_completed;
          string_of_int r.r_t100;
          string_of_int r.r_aet;
          Fmt.str "%.3f" r.r_tec;
          Fmt.str "%.3f" r.r_reserved;
          string_of_int r.r_steps;
        ])
      outcome.rollups
  in
  Agrid_report.Table.make ~title:"Per-tenant rollup"
    ~columns:
      [
        "tenant"; "priority"; "arrivals"; "admitted"; "rejected"; "completed";
        "T100"; "AET"; "TEC"; "reserved"; "steps";
      ]
    ~rows
