open Agrid_workload
open Agrid_sched
open Agrid_core

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3
let params = Slrh.default_params weights

let workload () = Testlib.small_workload ~seed:11 ()

let run ~at ~machine =
  Dynamic.run_with_loss params (workload ()) { Dynamic.at; machine }

let test_loss_completes_and_validates () =
  let o = run ~at:(Workload.tau (workload ()) / 4) ~machine:3 in
  let r = Validate.check o.Dynamic.schedule in
  Alcotest.(check (list string)) "no violations" [] r.Validate.violations;
  Alcotest.(check bool) "complete" true r.Validate.complete;
  Alcotest.(check int) "reduced grid" 3 (Workload.n_machines o.Dynamic.workload)

let test_survivors_plus_discarded_bounded () =
  let wl = workload () in
  let o = run ~at:(Workload.tau wl / 4) ~machine:3 in
  Alcotest.(check bool) "mapped work partitioned" true
    (o.Dynamic.n_survivors + o.Dynamic.n_discarded <= Workload.n_tasks wl);
  Alcotest.(check bool) "some work survived" true (o.Dynamic.n_survivors > 0)

let test_survivors_finished_before_loss () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let o = run ~at ~machine:3 in
  (* every placement finishing before the loss instant must have been
     either carried over or (re)scheduled; all carried placements end
     before [at] OR were scheduled by phase 2 which starts at [at]... the
     checkable invariant: no placement on the reduced grid overlaps the
     loss instant unless phase 2 created it, and phase 2 never schedules
     a start before [at]. Combined: start < at implies stop <= at. *)
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.start < at && p.Schedule.stop > at then
        Alcotest.failf "task %d spans the loss instant (%d..%d vs %d)" p.Schedule.task
          p.Schedule.start p.Schedule.stop at)
    (Schedule.placements o.Dynamic.schedule)

let test_no_survivor_on_lost_machine () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let lost = 1 in
  let o = run ~at ~machine:lost in
  (* machines on the reduced grid are the survivors; any placement carried
     over (stop <= at) must have run on a surviving machine. There is no
     way to observe old indices directly, but counting placements that
     finished before [at] per machine class is a proxy; instead verify via
     pre_loss: placements on the lost machine are all discarded. *)
  let pre = o.Dynamic.pre_loss.Slrh.schedule in
  let on_lost = ref 0 in
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.machine = lost then incr on_lost)
    (Schedule.placements pre);
  Alcotest.(check bool) "lost machine had work to lose" true (!on_lost > 0);
  Alcotest.(check bool) "discarded at least that" true (o.Dynamic.n_discarded >= !on_lost)

let test_ancestor_closure () =
  (* survivors form an ancestor-closed set: in the final schedule every
     placement that was carried over (stop <= at and start < at) has
     parents placed no later *)
  let wl = workload () in
  let at = Workload.tau wl / 3 in
  let o = run ~at ~machine:1 in
  let sched = o.Dynamic.schedule in
  let dag = Workload.dag o.Dynamic.workload in
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
  Alcotest.(check bool) "sunk energy nonnegative" true (o.Dynamic.sunk_energy >= 0.);
  (* TEC in the engine = validator TEC + sunk energy *)
  let r = Validate.check o.Dynamic.schedule in
  Testlib.close "engine tec = validated + sunk"
    (r.Validate.tec +. o.Dynamic.sunk_energy)
    (Schedule.tec o.Dynamic.schedule) ~eps:1e-6

let test_losing_fast_hurts_more () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let slow = run ~at ~machine:3 in
  let fast = run ~at ~machine:1 in
  let t100 o = Schedule.n_primary o.Dynamic.schedule in
  Alcotest.(check bool) "fast loss discards more" true
    (fast.Dynamic.n_discarded >= slow.Dynamic.n_discarded);
  Alcotest.(check bool) "fast loss lowers T100" true (t100 fast <= t100 slow)

let test_early_loss_approaches_static_case () =
  (* losing a machine at t=0 is exactly a static 3-machine run: nothing to
     discard, no sunk energy *)
  let o = run ~at:0 ~machine:3 in
  Alcotest.(check int) "no survivors" 0 o.Dynamic.n_survivors;
  Alcotest.(check int) "no discards" 0 o.Dynamic.n_discarded;
  Testlib.close "no sunk energy" 0. o.Dynamic.sunk_energy

let test_validation_args () =
  let wl = workload () in
  Alcotest.check_raises "bad machine" (Invalid_argument "Dynamic.run_with_loss: no such machine")
    (fun () -> ignore (Dynamic.run_with_loss params wl { Dynamic.at = 5; machine = 9 }));
  Alcotest.check_raises "bad time" (Invalid_argument "Dynamic.run_with_loss: negative loss time")
    (fun () -> ignore (Dynamic.run_with_loss params wl { Dynamic.at = -1; machine = 0 }))

(* The flat cycle table against the ETC-derived formula, both versions,
   every (task, machine): primary = cycles_of_seconds (ETC seconds),
   secondary = max 1 (ceil (fraction * primary)), energy = the machine's
   compute rate over the occupied cycles. [etc_machine] maps [wl]'s
   machine index to the column of [etc] it must read, which is how a
   reduced workload is checked against the ETC it was cut from. *)
let check_exec_table ~what ~etc ~etc_machine wl =
  let fraction = (Workload.spec wl).Spec.secondary_fraction in
  for task = 0 to Workload.n_tasks wl - 1 do
    for machine = 0 to Workload.n_machines wl - 1 do
      let primary =
        Agrid_platform.Units.cycles_of_seconds
          (Agrid_etc.Etc.seconds etc ~task ~machine:(etc_machine machine))
      in
      let secondary =
        max 1 (int_of_float (Float.ceil (float_of_int primary *. fraction)))
      in
      let rate =
        (Agrid_platform.Grid.machine (Workload.grid wl) machine)
          .Agrid_platform.Machine.compute_rate
      in
      List.iter
        (fun (version, cycles) ->
          let label = Fmt.str "%s: task %d machine %d %a" what task machine Version.pp version in
          Alcotest.(check int) (label ^ " cycles") cycles
            (Workload.exec_cycles wl ~task ~machine ~version);
          Alcotest.(check int64) (label ^ " energy (bits)")
            (Int64.bits_of_float
               (rate *. Agrid_platform.Units.seconds_of_cycles cycles))
            (Int64.bits_of_float (Workload.exec_energy wl ~task ~machine ~version)))
        [ (Version.Primary, primary); (Version.Secondary, secondary) ]
    done
  done

let test_workload_remove_machine () =
  let wl = workload () in
  let etc = Workload.etc wl in
  check_exec_table ~what:"full grid" ~etc ~etc_machine:Fun.id wl;
  let r = Workload.remove_machine wl ~machine:1 in
  Alcotest.(check int) "one fewer machine" (Workload.n_machines wl - 1) (Workload.n_machines r);
  (* columns shift: old machine 2 becomes machine 1 *)
  for task = 0 to Workload.n_tasks wl - 1 do
    Alcotest.(check int) "column shift"
      (Workload.exec_cycles wl ~task ~machine:2 ~version:Version.Primary)
      (Workload.exec_cycles r ~task ~machine:1 ~version:Version.Primary)
  done;
  (* every machine lost in turn, and a second loss on top of the first:
     the re-indexed table must still read the original ETC column *)
  for lost = 0 to Workload.n_machines wl - 1 do
    let shift lost j = if j < lost then j else j + 1 in
    let r = Workload.remove_machine wl ~machine:lost in
    check_exec_table ~what:(Fmt.str "without %d" lost) ~etc ~etc_machine:(shift lost) r;
    let rr = Workload.remove_machine r ~machine:0 in
    check_exec_table
      ~what:(Fmt.str "without %d then 0" lost)
      ~etc
      ~etc_machine:(fun j -> shift lost (shift 0 j))
      rr
  done

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
  let o = Dynamic.run_with_outage params wl ~machine:1 ~from_:(tau / 10) ~until_:(tau / 2) in
  Alcotest.(check bool) "completed" true o.Dynamic.o_completed;
  let r = Validate.check o.Dynamic.o_schedule in
  Alcotest.(check (list string)) "valid" [] r.Validate.violations;
  Alcotest.(check int) "back to full grid" (Workload.n_machines wl)
    (Workload.n_machines (Schedule.workload o.Dynamic.o_schedule))

let test_outage_beats_permanent_loss () =
  (* a temporary outage can never leave us with less capacity than losing
     the machine forever: T100 should be at least the permanent-loss T100 *)
  let wl = workload () in
  let tau = Workload.tau wl in
  let from_ = tau / 10 in
  let outage = Dynamic.run_with_outage params wl ~machine:1 ~from_ ~until_:(tau / 4) in
  let loss = Dynamic.run_with_loss params wl { Dynamic.at = from_; machine = 1 } in
  Alcotest.(check bool) "outage >= permanent loss" true
    (Schedule.n_primary outage.Dynamic.o_schedule
    >= Schedule.n_primary loss.Dynamic.schedule)

let test_outage_sunk_energy_nonnegative () =
  let wl = workload () in
  let tau = Workload.tau wl in
  let o = Dynamic.run_with_outage params wl ~machine:0 ~from_:(tau / 8) ~until_:(tau / 3) in
  Alcotest.(check bool) "sunk >= 0" true (o.Dynamic.o_sunk_energy >= 0.);
  (* ledger includes sunk: engine TEC = validator TEC + all sunk charges *)
  let r = Validate.check o.Dynamic.o_schedule in
  Alcotest.(check bool) "ledger >= validator tec" true
    (Schedule.tec o.Dynamic.o_schedule >= r.Validate.tec -. 1e-9)

let test_outage_validation () =
  let wl = workload () in
  Alcotest.check_raises "until before from"
    (Invalid_argument "Dynamic.run_with_outage: until before from") (fun () ->
      ignore (Dynamic.run_with_outage params wl ~machine:0 ~from_:100 ~until_:50))

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
        Alcotest.test_case "workload remove_machine" `Quick test_workload_remove_machine;
        Alcotest.test_case "charge_energy" `Quick test_charge_energy;
        Alcotest.test_case "outage completes+validates" `Quick
          test_outage_completes_and_validates;
        Alcotest.test_case "outage beats permanent loss" `Quick
          test_outage_beats_permanent_loss;
        Alcotest.test_case "outage sunk energy" `Quick test_outage_sunk_energy_nonnegative;
        Alcotest.test_case "outage validation" `Quick test_outage_validation;
        Alcotest.test_case "continue_run resumes" `Quick test_continue_run_resumes;
      ] );
  ]
