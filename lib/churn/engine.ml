(* The churn engine: one event-driven loop alternating scheduler phases
   with grid transitions. The per-phase scheduler is injected as a
   [runner] (Agrid_core.Dynamic.slrh_runner supplies the paper's SLRH
   loop), which keeps this library below agrid_core in the dependency
   order and the engine agnostic of the heuristic it drives.

   Two design decisions keep arbitrary traces composable:

   - masking, not renumbering: absent machines stay in the grid (and keep
     their ETC columns, batteries and indices) but are skipped by the
     runner's sweep, so a Rejoin is just a mask flip and traces with many
     overlapping outages need no index gymnastics;
   - rebuild-by-replay: a Leave (or link degrade) swaps in a fresh
     schedule, replays the surviving placements/transfers verbatim and
     re-applies the accumulated sunk-energy charges, so every phase runs
     against a schedule whose invariants hold by construction.

   Sunk-energy accounting: partially (or wholly) executed work that a Leave
   discards is billed to the machines still present; the departing
   machine's own burn is remembered as a debit and billed only if it
   rejoins — batteries do not refill, and a battery that left the grid
   cannot be charged. *)

open Agrid_workload
open Agrid_sched

type 'a runner =
  start_clock:int ->
  until:int option ->
  mask:bool array ->
  eligible:(int -> bool) ->
  Schedule.t ->
  'a * int

type 'a phase = {
  ph_from : int;
  ph_until : int option;
  ph_up : bool array;
  ph_outcome : 'a;
}

type applied = {
  ev : Event.t;
  ev_survivors : int;
  ev_discarded : int;
  ev_deferred : int;
  ev_failed : int;
  ev_sunk : float;
}

type 'a outcome = {
  schedule : Schedule.t;
  workload : Workload.t;
  completed : bool;
  final_clock : int;
  up : bool array;
  phases : 'a phase list;
  applied : applied list;
  discards : int array;
  n_discarded : int;
  n_failed : int;
  n_held : int;
  sunk_energy : float;
  shock_energy : float;
  ledger_energy_ok : bool;
}

(* Partial-execution energy of a placement cut at [at]: what the machine
   burned before the event (full energy once stop <= at). *)
let partial_exec_energy wl (p : Schedule.placement) ~at =
  let executed = max 0 (min p.stop at - p.start) in
  if executed <= 0 then 0.
  else
    Agrid_platform.Machine.compute_energy
      (Agrid_platform.Grid.machine (Workload.grid wl) p.machine)
      ~seconds:(Agrid_platform.Units.seconds_of_cycles executed)

let partial_transfer_energy wl (tr : Schedule.transfer) ~at =
  let sent = max 0 (min tr.stop at - tr.start) in
  if sent <= 0 then 0.
  else
    Agrid_platform.Machine.transmit_energy
      (Agrid_platform.Grid.machine (Workload.grid wl) tr.src)
      ~seconds:(Agrid_platform.Units.seconds_of_cycles sent)

(* Mutable run state. [sched] is swapped wholesale on rebuilds; the
   replaced object keeps the pre-event state, which is how phase outcomes
   double as snapshots. *)
type state = {
  policy : Retry.policy;
  mutable wl : Workload.t;
  mutable sched : Schedule.t;
  up : bool array;
  debit : float array;  (* per absent machine: burn billed at rejoin *)
  discards : int array;
  held : bool array;
  failed : bool array;
  mutable n_discarded : int;
  mutable sunk : float;
  mutable shock : float;
}

(* Fresh schedule on [st.wl] with [keep]-selected placements (topological
   order keeps the frontier bookkeeping consistent), the transfers feeding
   them, and the accumulated non-work charges. *)
let rebuild st ~keep ~keep_transfer =
  let old = st.sched in
  let fresh = Schedule.create st.wl in
  let dag = Workload.dag st.wl in
  Array.iter
    (fun task ->
      match Schedule.placement old task with
      | Some p when keep task -> Schedule.replay_placement fresh p
      | Some _ | None -> ())
    (Agrid_dag.Dag.topological_order dag);
  Array.iter
    (fun (tr : Schedule.transfer) ->
      if keep_transfer tr then Schedule.replay_transfer fresh tr)
    (Schedule.transfers old);
  for j = 0 to Workload.n_machines st.wl - 1 do
    let c = Schedule.energy_charged old j in
    if c > 0. then Schedule.charge_energy fresh ~machine:j c
  done;
  st.sched <- fresh

let charge_sunk st ~machine amount =
  if amount > 0. then begin
    Schedule.charge_energy st.sched ~machine amount;
    st.sunk <- st.sunk +. amount
  end

let apply_leave st ~at j =
  st.up.(j) <- false;
  let old = st.sched in
  let wl = st.wl in
  let dag = Workload.dag wl in
  let n = Workload.n_tasks wl in
  (* survivor set: finished strictly before the event, on a machine still
     present, all ancestors surviving (topological order) *)
  let survives = Array.make n false in
  Array.iter
    (fun task ->
      match Schedule.placement old task with
      | Some p when st.up.(p.Schedule.machine) && p.Schedule.stop <= at ->
          let n_parents = Agrid_dag.Dag.in_degree dag task in
          let k = ref 0 in
          while !k < n_parents && survives.(Agrid_dag.Dag.parent dag task !k) do
            incr k
          done;
          survives.(task) <- !k = n_parents
      | Some _ | None -> ())
    (Agrid_dag.Dag.topological_order dag);
  (* retry bookkeeping per discarded placement *)
  let survivors = ref 0 and discarded = ref 0 and deferred = ref 0 and failed = ref 0 in
  for task = 0 to n - 1 do
    match Schedule.placement old task with
    | None -> ()
    | Some _ when survives.(task) -> incr survivors
    | Some _ ->
        incr discarded;
        st.discards.(task) <- st.discards.(task) + 1;
        st.n_discarded <- st.n_discarded + 1;
        let out_of_budget =
          match st.policy.Retry.budget with
          | Some b -> st.discards.(task) > b
          | None -> false
        in
        if out_of_budget then begin
          if not st.failed.(task) then incr failed;
          st.failed.(task) <- true
        end
        else begin
          match st.policy.Retry.timing with
          | Retry.Immediate -> ()
          | Retry.Defer_to_rejoin ->
              st.held.(task) <- true;
              incr deferred
        end
  done;
  rebuild st
    ~keep:(fun task -> survives.(task))
    ~keep_transfer:(fun tr -> survives.(tr.Schedule.dst_task));
  (* sunk energy of the discarded work, cut at the event instant: machines
     still present are billed now; the departing machine accrues a debit *)
  let sunk_here = ref 0. in
  let bill ~machine amount =
    if amount > 0. then
      if machine = j then st.debit.(j) <- st.debit.(j) +. amount
      else begin
        charge_sunk st ~machine amount;
        sunk_here := !sunk_here +. amount
      end
  in
  Array.iter
    (fun (tr : Schedule.transfer) ->
      if not survives.(tr.Schedule.dst_task) then
        bill ~machine:tr.Schedule.src (partial_transfer_energy wl tr ~at))
    (Schedule.transfers old);
  for task = 0 to n - 1 do
    match Schedule.placement old task with
    | Some p when not survives.(task) ->
        bill ~machine:p.Schedule.machine (partial_exec_energy wl p ~at)
    | Some _ | None -> ()
  done;
  (!survivors, !discarded, !deferred, !failed, !sunk_here)

let apply_rejoin st j =
  st.up.(j) <- true;
  let debit = st.debit.(j) in
  st.debit.(j) <- 0.;
  charge_sunk st ~machine:j debit;
  (* capacity is back: deferred work becomes remappable again *)
  (match st.policy.Retry.timing with
  | Retry.Defer_to_rejoin -> Array.fill st.held 0 (Array.length st.held) false
  | Retry.Immediate -> ());
  debit

let apply_shock st j fraction =
  let amount = fraction *. Float.max 0. (Schedule.energy_remaining st.sched j) in
  charge_sunk st ~machine:j amount;
  st.shock <- st.shock +. amount;
  amount

let apply_degrade st j factor =
  st.wl <- Workload.degrade_bandwidth st.wl ~machine:j ~factor;
  (* committed transfers keep their slots and recorded energy; only future
     plans see the degraded link *)
  rebuild st ~keep:(fun _ -> true) ~keep_transfer:(fun _ -> true)

let run ?(obs = Agrid_obs.Sink.noop) ~policy ~runner workload events =
  let m = Workload.n_machines workload in
  let n = Workload.n_tasks workload in
  let events = Event.sort events in
  Event.validate ~n_machines:m events;
  let st =
    {
      policy;
      wl = workload;
      sched = Schedule.create workload;
      up = Array.make m true;
      debit = Array.make m 0.;
      discards = Array.make n 0;
      held = Array.make n false;
      failed = Array.make n false;
      n_discarded = 0;
      sunk = 0.;
      shock = 0.;
    }
  in
  let eligible task = not (st.held.(task) || st.failed.(task)) in
  let clock = ref 0 in
  let fclock = ref 0 in
  let phases = ref [] in
  let applied = ref [] in
  let run_phase ?until () =
    let o, phase_clock =
      Agrid_obs.Sink.span obs "churn/phase" (fun () ->
          runner ~start_clock:!clock ~until ~mask:st.up ~eligible st.sched)
    in
    Agrid_obs.Sink.incr obs "churn/phases";
    fclock := phase_clock;
    phases :=
      { ph_from = !clock; ph_until = until; ph_up = Array.copy st.up; ph_outcome = o }
      :: !phases
  in
  List.iter
    (fun (ev : Event.t) ->
      if ev.Event.at > !clock then begin
        run_phase ~until:(ev.Event.at - 1) ();
        clock := ev.Event.at
      end;
      let ev_survivors, ev_discarded, ev_deferred, ev_failed, ev_sunk =
        Agrid_obs.Sink.span obs "churn/event" (fun () ->
            match ev.Event.kind with
            | Event.Leave j ->
                let s, d, held, failed, sunk = apply_leave st ~at:ev.Event.at j in
                (s, d, held, failed, sunk)
            | Event.Rejoin j -> (0, 0, 0, 0, apply_rejoin st j)
            | Event.Battery_shock (j, f) -> (0, 0, 0, 0, apply_shock st j f)
            | Event.Bandwidth_degrade (j, f) ->
                apply_degrade st j f;
                (0, 0, 0, 0, 0.))
      in
      (* decision-ledger churn marker: lets explain/diff anchor idle and
         rejection entries to the grid transition that caused them *)
      (match Agrid_obs.Sink.ledger obs with
      | None -> ()
      | Some led ->
          let machine, event, detail =
            match ev.Event.kind with
            | Event.Leave j -> (j, "leave", ev_sunk)
            | Event.Rejoin j -> (j, "rejoin", ev_sunk)
            | Event.Battery_shock (j, f) -> (j, "shock", f)
            | Event.Bandwidth_degrade (j, f) -> (j, "degrade", f)
          in
          Agrid_obs.Ledger.record led
            (Agrid_obs.Ledger.Churn { clock = ev.Event.at; machine; event; detail }));
      if Agrid_obs.Sink.enabled obs then begin
        Agrid_obs.Sink.incr obs "churn/events";
        Agrid_obs.Sink.incr obs
          (match ev.Event.kind with
          | Event.Leave _ -> "churn/leaves"
          | Event.Rejoin _ -> "churn/rejoins"
          | Event.Battery_shock _ -> "churn/shocks"
          | Event.Bandwidth_degrade _ -> "churn/degrades");
        Agrid_obs.Sink.add obs "churn/discarded" ev_discarded;
        Agrid_obs.Sink.add obs "churn/deferred" ev_deferred;
        Agrid_obs.Sink.add obs "churn/failed" ev_failed
      end;
      applied := { ev; ev_survivors; ev_discarded; ev_deferred; ev_failed; ev_sunk } :: !applied)
    events;
  run_phase ();
  let final_clock = !fclock in
  let ledger_energy_ok =
    let ok = ref true in
    for j = 0 to m - 1 do
      if Schedule.energy_remaining st.sched j < -1e-9 then ok := false
    done;
    !ok
  in
  let count a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  if Agrid_obs.Sink.enabled obs then begin
    Agrid_obs.Sink.set_gauge obs "churn/sunk_energy" st.sunk;
    Agrid_obs.Sink.set_gauge obs "churn/shock_energy" st.shock;
    Agrid_obs.Sink.set_gauge obs "churn/final_clock" (float_of_int final_clock)
  end;
  {
    schedule = st.sched;
    workload = st.wl;
    completed = Schedule.all_mapped st.sched;
    final_clock;
    up = Array.copy st.up;
    phases = List.rev !phases;
    applied = List.rev !applied;
    discards = st.discards;
    n_discarded = st.n_discarded;
    n_failed = count st.failed;
    n_held = count st.held;
    sunk_energy = st.sunk;
    shock_energy = st.shock;
    ledger_energy_ok;
  }

(* ------------------------------------------------------------------ *)
(* Audit: structural checks that, unlike Validate.check, trust recorded
   transfer durations (the link model may have changed mid-run) and know
   about machine presence and the sunk-energy ledger. *)

let audit o =
  let wl = Schedule.workload o.schedule in
  let m = Workload.n_machines wl in
  let violations = ref [] in
  let bad fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  let placements = Schedule.placements o.schedule in
  let transfers = Schedule.transfers o.schedule in
  (* presence: nothing may sit on an absent machine *)
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.machine < 0 || p.machine >= m then
        bad "task %d on nonexistent machine %d" p.task p.machine
      else if not o.up.(p.machine) then
        bad "task %d placed on absent machine %d" p.task p.machine)
    placements;
  (* overlap per machine / channel, from recorded intervals *)
  let check_lane label intervals =
    let sorted = List.sort compare intervals in
    let rec scan = function
      | (_, e1, a) :: ((s2, _, b) :: _ as rest) ->
          if s2 < e1 then bad "%s overlap between %d and %d" label a b;
          scan rest
      | [ _ ] | [] -> ()
    in
    scan sorted
  in
  for j = 0 to m - 1 do
    check_lane (Fmt.str "machine %d execution" j)
      (Array.to_list placements
      |> List.filter_map (fun (p : Schedule.placement) ->
             if p.machine = j then Some (p.start, p.stop, p.task) else None));
    check_lane (Fmt.str "machine %d outgoing channel" j)
      (Array.to_list transfers
      |> List.filter_map (fun (tr : Schedule.transfer) ->
             if tr.src = j then Some (tr.start, tr.stop, tr.edge) else None));
    check_lane (Fmt.str "machine %d incoming channel" j)
      (Array.to_list transfers
      |> List.filter_map (fun (tr : Schedule.transfer) ->
             if tr.dst = j then Some (tr.start, tr.stop, tr.edge) else None))
  done;
  (* precedence with recorded transfer windows *)
  let transfer_by_edge = Hashtbl.create (Array.length transfers) in
  Array.iter
    (fun (tr : Schedule.transfer) ->
      if Hashtbl.mem transfer_by_edge tr.Schedule.edge then
        bad "edge %d transferred more than once" tr.Schedule.edge
      else Hashtbl.add transfer_by_edge tr.Schedule.edge tr)
    transfers;
  Agrid_dag.Dag.iter_edges
    (fun e ~src ~dst ->
      match (Schedule.placement o.schedule src, Schedule.placement o.schedule dst) with
      | Some ps, Some pd ->
          if ps.machine = pd.machine then begin
            if pd.start < ps.stop then
              bad "task %d starts before parent %d finishes (same machine)" dst src
          end
          else begin
            match Hashtbl.find_opt transfer_by_edge e with
            | None -> bad "cross-machine edge %d (%d->%d) has no transfer" e src dst
            | Some tr ->
                if tr.src <> ps.machine || tr.dst <> pd.machine then
                  bad "edge %d transfer endpoints (%d->%d) do not match placements (%d->%d)"
                    e tr.src tr.dst ps.machine pd.machine;
                if tr.start < ps.stop then
                  bad "edge %d transfer departs before parent %d finishes" e src;
                if pd.start < tr.stop then
                  bad "task %d starts before its input on edge %d arrives" dst e
          end
      | None, Some _ -> bad "task %d mapped before its parent %d" dst src
      | _, None -> ())
    (Workload.dag wl);
  (* energy ledger, sunk charges included *)
  for j = 0 to m - 1 do
    let battery =
      (Agrid_platform.Grid.machine (Workload.grid wl) j).Agrid_platform.Machine.battery
    in
    if Schedule.energy_remaining o.schedule j < -.(1e-9 *. battery) then
      bad "machine %d battery overdrawn (%.3f remaining)" j
        (Schedule.energy_remaining o.schedule j)
  done;
  List.rev !violations

let pp_applied ppf a =
  Fmt.pf ppf "%a survivors=%d discarded=%d deferred=%d failed=%d sunk=%.3f" Event.pp a.ev
    a.ev_survivors a.ev_discarded a.ev_deferred a.ev_failed a.ev_sunk

let pp_outcome ppf o =
  Fmt.pf ppf
    "churn<%a events=%d discarded=%d failed=%d held=%d sunk=%.3f shock=%.3f \
     completed=%b clock=%d ledger_ok=%b>"
    Schedule.pp o.schedule (List.length o.applied) o.n_discarded o.n_failed o.n_held
    o.sunk_energy o.shock_energy o.completed o.final_clock o.ledger_energy_ok
