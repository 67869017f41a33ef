(* One scheduling job for the scenario service, in two stages: [prepare]
   realizes the scenario reference, [execute] runs the SLRH loop (through
   the churn engine when the spec carries an event timeline) and
   summarizes the final schedule. The server runs the stages on different
   domains; [run] chains them. The deadline is cooperative: a cancel
   closure handed to the SLRH params is polled once per timestep, so a
   fired deadline ends the run at a step boundary with the schedule as
   built so far — no preemption, no torn state. *)

module Serialize = Agrid_workload.Serialize
module Workload = Agrid_workload.Workload
module Slrh = Agrid_core.Slrh
module Dynamic = Agrid_core.Dynamic
module Schedule = Agrid_sched.Schedule
module Objective = Agrid_core.Objective
module Sink = Agrid_obs.Sink
module Clock = Agrid_obs.Clock

type spec = {
  tag : string option;
  trace_id : string option;  (* correlation id stamped by a relaying router *)
  tenant : string option;  (* owning tenant, for per-tenant admission caps *)
  scenario : Serialize.scenario_ref;
  alpha : float;
  beta : float;
  variant : Slrh.variant;
  delta_t : int;
  horizon : int;
  mode : Slrh.mode;
  adapt : Agrid_core.Adapt.spec option;
  events : Agrid_churn.Event.t list;
  deadline_ms : float option;
}

let default scenario =
  {
    tag = None;
    trace_id = None;
    tenant = None;
    scenario;
    alpha = 0.4;
    beta = 0.3;
    variant = Slrh.V1;
    delta_t = 10;
    horizon = 100;
    mode = `Soa;
    adapt = None;
    events = [];
    deadline_ms = None;
  }

type status = Ok_done | Deadline_missed | Errored of string

let status_to_string = function
  | Ok_done -> "ok"
  | Deadline_missed -> "deadline_missed"
  | Errored _ -> "errored"

type result = {
  status : status;
  completed : bool;
  t100 : int;
  mapped : int;
  aet : int;
  tec : float;
  energy_remaining : float array;
  final_clock : int;
  n_discarded : int;
  sunk_energy : float;
  wall_seconds : float;
}

let errored msg =
  {
    status = Errored msg;
    completed = false;
    t100 = 0;
    mapped = 0;
    aet = 0;
    tec = 0.;
    energy_remaining = [||];
    final_clock = 0;
    n_discarded = 0;
    sunk_energy = 0.;
    wall_seconds = 0.;
  }

(* A deadline of <= 0 ms fires deterministically before the first timestep
   — the soak harness's "impossible deadline" relies on never touching the
   clock for it, so the resulting empty schedule is reproducible. *)
let cancel_for ~t0 ~fired = function
  | None -> fun () -> false
  | Some ms when ms <= 0. ->
      fun () ->
        fired := true;
        true
  | Some ms ->
      let budget = ms /. 1000. in
      fun () ->
        if Clock.elapsed_seconds ~since:t0 >= budget then begin
          fired := true;
          true
        end
        else false

let summarize ~status ~completed ~final_clock ~n_discarded ~sunk_energy ~wall
    sched =
  let n = Workload.n_machines (Schedule.workload sched) in
  {
    status;
    completed;
    t100 = Schedule.n_primary sched;
    mapped = Schedule.n_mapped sched;
    aet = Schedule.aet sched;
    tec = Schedule.tec sched;
    energy_remaining = Array.init n (Schedule.energy_remaining sched);
    final_clock;
    n_discarded;
    sunk_energy;
    wall_seconds = wall;
  }

type prepared = {
  spec : spec;
  workload : (Workload.t, string) Stdlib.result;
  realize_ns : int64;
}

(* The exceptions a bad scenario or bad parameters raise, as [errored]
   diagnostics. Anything else is a bug and propagates. *)
let diagnose = function
  | Serialize.Parse_error { line; message } ->
      Some (Fmt.str "scenario parse error at line %d: %s" line message)
  | Agrid_dag.Dag.Cycle tasks ->
      (* the tasks still locked in cycles, the first 16 of them by id *)
      let shown = List.filteri (fun i _ -> i < 16) tasks in
      let more = List.length tasks - List.length shown in
      Some
        (Fmt.str "scenario DAG has a cycle through tasks %a%s"
           Fmt.(list ~sep:(any ", ") int)
           shown
           (if more > 0 then Fmt.str " and %d more" more else ""))
  | Invalid_argument msg | Failure msg -> Some msg
  | _ -> None

let prepare spec =
  let t0 = Clock.monotonic_ns () in
  let workload =
    match Serialize.realize spec.scenario with
    | w -> Ok w
    | exception e -> (
        match diagnose e with Some msg -> Error msg | None -> raise e)
  in
  { spec; workload; realize_ns = Int64.sub (Clock.monotonic_ns ()) t0 }

let execute ?(obs = Sink.noop) { spec; workload; realize_ns } =
  match workload with
  | Error msg -> errored msg
  | Ok workload -> (
      (* the budget covers realize + SLRH, never queue wait: the clock
         starts "realize time ago" *)
      let t0 = Int64.sub (Clock.monotonic_ns ()) realize_ns in
      let fired = ref false in
      match
        let weights = Objective.make_weights ~alpha:spec.alpha ~beta:spec.beta in
        let params =
          {
            (Slrh.default_params ~variant:spec.variant weights) with
            Slrh.delta_t = spec.delta_t;
            horizon = spec.horizon;
            mode = spec.mode;
            obs;
            cancel = cancel_for ~t0 ~fired spec.deadline_ms;
          }
        in
        (* a fresh controller per job: Adapt.t is mutable run state. An
           invalid spec raises Invalid_argument, answered as [Errored]
           (the codec validates up front, so that path means a caller
           built the spec by hand). *)
        let params =
          match spec.adapt with
          | None -> params
          | Some aspec ->
              {
                params with
                Slrh.adapt = Some (Agrid_core.Adapt.create aspec weights);
                feas_mode = Agrid_core.Adapt.feas_mode aspec;
              }
        in
        match spec.events with
        | [] -> `Static (Slrh.run params workload)
        | events -> `Churn (Dynamic.run_churn params workload events)
      with
      | exception e -> (
          match diagnose e with Some msg -> errored msg | None -> raise e)
      | outcome -> (
          let wall = Clock.elapsed_seconds ~since:t0 in
          let status = if !fired then Deadline_missed else Ok_done in
          match outcome with
          | `Static (out : Slrh.outcome) ->
              summarize ~status ~completed:out.Slrh.completed
                ~final_clock:out.Slrh.final_clock ~n_discarded:0 ~sunk_energy:0.
                ~wall out.Slrh.schedule
          | `Churn out ->
              summarize ~status ~completed:out.Agrid_churn.Engine.completed
                ~final_clock:out.Agrid_churn.Engine.final_clock
                ~n_discarded:out.Agrid_churn.Engine.n_discarded
                ~sunk_energy:out.Agrid_churn.Engine.sunk_energy ~wall
                out.Agrid_churn.Engine.schedule))

let run ?obs spec = execute ?obs (prepare spec)

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_modulo_wall a b =
  a.status = b.status && a.completed = b.completed && a.t100 = b.t100
  && a.mapped = b.mapped && a.aet = b.aet
  && float_bits_equal a.tec b.tec
  && Array.length a.energy_remaining = Array.length b.energy_remaining
  && Array.for_all2 float_bits_equal a.energy_remaining b.energy_remaining
  && a.final_clock = b.final_clock
  && a.n_discarded = b.n_discarded
  && float_bits_equal a.sunk_energy b.sunk_energy
