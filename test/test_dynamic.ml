open Agrid_workload
open Agrid_sched
open Agrid_core
module Event = Agrid_churn.Event
module Engine = Agrid_churn.Engine

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3
let params = Slrh.default_params weights

let workload () = Testlib.small_workload ~seed:11 ()

let loss ~at machine = [ { Event.at; kind = Event.Leave machine } ]

let outage ~from_ ~until_ machine =
  [
    { Event.at = from_; kind = Event.Leave machine };
    { Event.at = until_; kind = Event.Rejoin machine };
  ]

let run ~at ~machine = Dynamic.run_churn params (workload ()) (loss ~at machine)

(* placements carried across a one-event loss trace *)
let survivors (o : _ Engine.outcome) =
  match o.Engine.applied with [ leave ] -> leave.Engine.ev_survivors | _ -> assert false

let test_loss_completes_and_validates () =
  let o = run ~at:(Workload.tau (workload ()) / 4) ~machine:3 in
  let r = Validate.check o.Engine.schedule in
  Alcotest.(check (list string)) "no violations" [] r.Validate.violations;
  Alcotest.(check bool) "complete" true r.Validate.complete;
  Alcotest.(check bool) "machine 3 stays absent" false o.Engine.up.(3);
  Alcotest.(check bool) "nothing left on the lost machine" true
    (Array.for_all
       (fun (p : Schedule.placement) -> p.Schedule.machine <> 3)
       (Schedule.placements o.Engine.schedule))

let test_survivors_plus_discarded_bounded () =
  let wl = workload () in
  let o = run ~at:(Workload.tau wl / 4) ~machine:3 in
  Alcotest.(check bool) "mapped work partitioned" true
    (survivors o + o.Engine.n_discarded <= Workload.n_tasks wl);
  Alcotest.(check bool) "some work survived" true (survivors o > 0)

let test_survivors_finished_before_loss () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let o = run ~at ~machine:3 in
  (* every placement finishing before the loss instant must have been
     either carried over or (re)scheduled; all carried placements end
     before [at] OR were scheduled by phase 2 which starts at [at]... the
     checkable invariant: no placement in the final schedule overlaps the
     loss instant unless phase 2 created it, and phase 2 never schedules
     a start before [at]. Combined: start < at implies stop <= at. *)
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.start < at && p.Schedule.stop > at then
        Alcotest.failf "task %d spans the loss instant (%d..%d vs %d)" p.Schedule.task
          p.Schedule.start p.Schedule.stop at)
    (Schedule.placements o.Engine.schedule)

let test_no_survivor_on_lost_machine () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let lost = 1 in
  let o = run ~at ~machine:lost in
  (* the pre-loss phase's schedule (frozen at the event) holds the lost
     machine's work; every placement on it must be discarded *)
  let pre = (List.hd o.Engine.phases).Engine.ph_outcome.Slrh.schedule in
  let on_lost = ref 0 in
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.machine = lost then incr on_lost)
    (Schedule.placements pre);
  Alcotest.(check bool) "lost machine had work to lose" true (!on_lost > 0);
  Alcotest.(check bool) "discarded at least that" true (o.Engine.n_discarded >= !on_lost)

let test_ancestor_closure () =
  (* survivors form an ancestor-closed set: in the final schedule every
     placement that was carried over (stop <= at and start < at) has
     parents placed no later *)
  let wl = workload () in
  let at = Workload.tau wl / 3 in
  let o = run ~at ~machine:1 in
  let sched = o.Engine.schedule in
  let dag = Workload.dag o.Engine.workload in
  Array.iter
    (fun (p : Schedule.placement) ->
      for k = 0 to Agrid_dag.Dag.in_degree dag p.Schedule.task - 1 do
        let parent = Agrid_dag.Dag.parent dag p.Schedule.task k in
        match Schedule.placement sched parent with
        | None -> Alcotest.failf "task %d mapped, parent %d missing" p.Schedule.task parent
        | Some pp ->
            if pp.Schedule.stop > p.Schedule.start then
              Alcotest.failf "parent %d finishes after child %d starts" parent
                p.Schedule.task
      done)
    (Schedule.placements sched)

let test_sunk_energy_accounting () =
  let wl = workload () in
  let o = run ~at:(Workload.tau wl / 4) ~machine:1 in
  Alcotest.(check bool) "sunk energy nonnegative" true (o.Engine.sunk_energy >= 0.);
  (* TEC in the engine = validator TEC + sunk energy *)
  let r = Validate.check o.Engine.schedule in
  Testlib.close "engine tec = validated + sunk"
    (r.Validate.tec +. o.Engine.sunk_energy)
    (Schedule.tec o.Engine.schedule) ~eps:1e-6

let test_losing_fast_hurts_more () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let slow = run ~at ~machine:3 in
  let fast = run ~at ~machine:1 in
  let t100 o = Schedule.n_primary o.Engine.schedule in
  Alcotest.(check bool) "fast loss discards more" true
    (fast.Engine.n_discarded >= slow.Engine.n_discarded);
  Alcotest.(check bool) "fast loss lowers T100" true (t100 fast <= t100 slow)

let test_early_loss_approaches_static_case () =
  (* losing a machine at t=0 is exactly a static 3-machine run: nothing to
     discard, no sunk energy *)
  let o = run ~at:0 ~machine:3 in
  Alcotest.(check int) "no survivors" 0 (survivors o);
  Alcotest.(check int) "no discards" 0 o.Engine.n_discarded;
  Testlib.close "no sunk energy" 0. o.Engine.sunk_energy

let test_validation_args () =
  let wl = workload () in
  Alcotest.check_raises "bad machine"
    (Invalid_argument "Churn.Event.validate: no such machine 9")
    (fun () -> ignore (Dynamic.run_churn params wl (loss ~at:5 9)));
  Alcotest.check_raises "bad time"
    (Invalid_argument "Churn.Event.validate: negative event time -1")
    (fun () -> ignore (Dynamic.run_churn params wl (loss ~at:(-1) 0)))

let test_charge_energy () =
  let s = Schedule.create (Testlib.diamond_workload ()) in
  let before = Schedule.energy_remaining s 0 in
  Schedule.charge_energy s ~machine:0 5.;
  Testlib.close "remaining drops" (before -. 5.) (Schedule.energy_remaining s 0);
  Testlib.close "tec grows" 5. (Schedule.tec s);
  Alcotest.check_raises "negative" (Invalid_argument "Schedule.charge_energy: negative amount")
    (fun () -> Schedule.charge_energy s ~machine:0 (-1.))

(* ---- outage (loss + rejoin) ---- *)

let test_outage_completes_and_validates () =
  let wl = workload () in
  let tau = Workload.tau wl in
  let o = Dynamic.run_churn params wl (outage ~from_:(tau / 10) ~until_:(tau / 2) 1) in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  let r = Validate.check o.Engine.schedule in
  Alcotest.(check (list string)) "valid" [] r.Validate.violations;
  Alcotest.(check bool) "back to full grid" true (Array.for_all Fun.id o.Engine.up)

let test_outage_beats_permanent_loss () =
  (* a temporary outage can never leave us with less capacity than losing
     the machine forever: T100 should be at least the permanent-loss T100 *)
  let wl = workload () in
  let tau = Workload.tau wl in
  let from_ = tau / 10 in
  let outage = Dynamic.run_churn params wl (outage ~from_ ~until_:(tau / 4) 1) in
  let loss = Dynamic.run_churn params wl (loss ~at:from_ 1) in
  Alcotest.(check bool) "outage >= permanent loss" true
    (Schedule.n_primary outage.Engine.schedule >= Schedule.n_primary loss.Engine.schedule)

let test_outage_sunk_energy_nonnegative () =
  let wl = workload () in
  let tau = Workload.tau wl in
  let o = Dynamic.run_churn params wl (outage ~from_:(tau / 8) ~until_:(tau / 3) 0) in
  Alcotest.(check bool) "sunk >= 0" true (o.Engine.sunk_energy >= 0.);
  (* ledger includes sunk: engine TEC = validator TEC + all sunk charges *)
  let r = Validate.check o.Engine.schedule in
  Alcotest.(check bool) "ledger >= validator tec" true
    (Schedule.tec o.Engine.schedule >= r.Validate.tec -. 1e-9)

let test_outage_validation () =
  let wl = workload () in
  (* the trace is sorted, so a rejoin before its leave finds the machine
     still present *)
  Alcotest.check_raises "until before from"
    (Invalid_argument "Churn.Event.validate: rejoin@50: machine 0 is already present")
    (fun () -> ignore (Dynamic.run_churn params wl (outage ~from_:100 ~until_:50 0)))

let test_continue_run_resumes () =
  (* splitting a run at an arbitrary clock must still complete *)
  let wl = workload () in
  let sched = Schedule.create wl in
  let mid = Workload.tau wl / 5 in
  let o1 = Slrh.continue_run ~until:mid params sched in
  Alcotest.(check bool) "phase 1 partial or complete" true
    (Schedule.n_mapped o1.Slrh.schedule <= Workload.n_tasks wl);
  let o2 = Slrh.continue_run ~start_clock:mid params sched in
  Alcotest.(check bool) "completed after resume" true o2.Slrh.completed;
  let r = Validate.check sched in
  Alcotest.(check (list string)) "valid" [] r.Validate.violations

(* ---- parity oracle ---- *)

(* One line per run over the facts a dynamic-grid caller reads: T100,
   mapped count, AET, survivors, discarded, the bits of the sunk energy,
   completion, the engine ledger and [Validate.feasible]. Losses cover
   SLRH-1/2/3 x machines 0-3 x loss at 0, 0.1, 0.25, 0.5 and 0.75 of tau;
   outages take [tau/10, tau/2) on machines 0 and 1 and record 0
   survivors. The digest was recorded from the reduced-grid loss and
   outage wrappers this engine outcome replaced; the engine's full-grid
   schedule must reproduce it. *)
let parity_digest wl =
  let b = Buffer.create 4096 in
  let tau = Workload.tau wl in
  let line ~survivors (o : _ Engine.outcome) =
    let r = Validate.check o.Engine.schedule in
    Buffer.add_string b
      (Fmt.str
         "t100=%d mapped=%d aet=%d survivors=%d discarded=%d sunk=%Lx completed=%b \
          ledger_ok=%b feasible=%b\n"
         r.Validate.t100 (Schedule.n_mapped o.Engine.schedule) r.Validate.aet survivors
         o.Engine.n_discarded (Int64.bits_of_float o.Engine.sunk_energy) o.Engine.completed
         o.Engine.ledger_energy_ok (Validate.feasible r))
  in
  List.iter
    (fun variant ->
      let params = Slrh.default_params ~variant weights in
      for machine = 0 to 3 do
        List.iter
          (fun fraction ->
            let at = int_of_float (float_of_int tau *. fraction) in
            let o = Dynamic.run_churn params wl (loss ~at machine) in
            line ~survivors:(survivors o) o)
          [ 0.0; 0.1; 0.25; 0.5; 0.75 ]
      done;
      List.iter
        (fun machine ->
          line ~survivors:0
            (Dynamic.run_churn params wl (outage ~from_:(tau / 10) ~until_:(tau / 2) machine)))
        [ 0; 1 ])
    [ Slrh.V1; Slrh.V2; Slrh.V3 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_parity_oracle () =
  Alcotest.(check string) "small workload" "f9a8b940d11e57091b44add1e3bceead"
    (parity_digest (workload ()));
  Alcotest.(check string) "scaled workload" "7f95faf00bfc47c4625d987c2754337f"
    (parity_digest
       (Workload.build (Spec.scaled ~seed:2004 ~factor:0.25 ()) ~etc_index:0 ~dag_index:0
          ~case:Agrid_platform.Grid.A))

let suites =
  [
    ( "dynamic",
      [
        Alcotest.test_case "loss completes+validates" `Quick test_loss_completes_and_validates;
        Alcotest.test_case "partition bounded" `Quick test_survivors_plus_discarded_bounded;
        Alcotest.test_case "no placement spans loss" `Quick test_survivors_finished_before_loss;
        Alcotest.test_case "lost machine work discarded" `Quick test_no_survivor_on_lost_machine;
        Alcotest.test_case "ancestor closure" `Quick test_ancestor_closure;
        Alcotest.test_case "sunk energy accounting" `Quick test_sunk_energy_accounting;
        Alcotest.test_case "fast loss hurts more" `Quick test_losing_fast_hurts_more;
        Alcotest.test_case "loss at t=0 is static" `Quick test_early_loss_approaches_static_case;
        Alcotest.test_case "argument validation" `Quick test_validation_args;
        Alcotest.test_case "charge_energy" `Quick test_charge_energy;
        Alcotest.test_case "outage completes+validates" `Quick
          test_outage_completes_and_validates;
        Alcotest.test_case "outage beats permanent loss" `Quick
          test_outage_beats_permanent_loss;
        Alcotest.test_case "outage sunk energy" `Quick test_outage_sunk_energy_nonnegative;
        Alcotest.test_case "outage validation" `Quick test_outage_validation;
        Alcotest.test_case "continue_run resumes" `Quick test_continue_run_resumes;
        Alcotest.test_case "loss parity oracle" `Quick test_parity_oracle;
      ] );
  ]
