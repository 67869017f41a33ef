open Agrid_workload
open Agrid_sched
open Agrid_core
open Agrid_churn

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3
let params = Slrh.default_params weights
let workload () = Testlib.small_workload ~seed:11 ()
let churn ?policy events = Dynamic.run_churn ?policy params (workload ()) events
let leave ~at j = { Event.at; kind = Event.Leave j }
let rejoin ~at j = { Event.at; kind = Event.Rejoin j }

(* SLRH's conservative feasibility check reserves each admission's own
   worst-case child communication but not the outstanding child
   communications of earlier admissions, so once sunk charges eat the
   battery slack a machine can end a run overdrawn by a transfer-sized
   amount. That is a property of the paper's scheduler, not of the churn
   bookkeeping: the audit reports it (and ledger_energy_ok goes false),
   the structural invariants must still hold, and any overdraft must stay
   a small fraction of the battery (a runaway accounting bug would blow
   far past it). *)
let check_audit name o =
  let is_overdraft v =
    let n = String.length v and pat = "overdrawn" in
    let p = String.length pat in
    let rec go i = i + p <= n && (String.sub v i p = pat || go (i + 1)) in
    go 0
  in
  let structural = List.filter (fun v -> not (is_overdraft v)) (Engine.audit o) in
  Alcotest.(check (list string)) (name ^ ": no structural violations") [] structural;
  let wl = Schedule.workload o.Engine.schedule in
  for j = 0 to Workload.n_machines wl - 1 do
    let battery =
      (Agrid_platform.Grid.machine (Workload.grid wl) j).Agrid_platform.Machine.battery
    in
    Alcotest.(check bool)
      (Fmt.str "%s: machine %d overdraft below 10%% of battery" name j)
      true
      (Schedule.energy_remaining o.Engine.schedule j >= -.(0.1 *. battery))
  done

(* ---- event grammar ---- *)

let test_parse_roundtrip () =
  let trace = "leave@120:1,shock@200:0:0.5,degrade@250:2:0.25,rejoin@400:1" in
  let events = Event.parse_trace trace in
  Alcotest.(check int) "four events" 4 (List.length events);
  Alcotest.(check string) "roundtrip" trace (Event.trace_to_string events);
  Alcotest.check_raises "malformed"
    (Invalid_argument "Churn.Event.parse: malformed event \"explode@3:1\"") (fun () ->
      ignore (Event.parse "explode@3:1"))

let test_trace_sorted_stable () =
  (* parse_trace sorts by time but keeps same-instant order: a zero-length
     outage stays leave-then-rejoin *)
  let events = Event.parse_trace "leave@50:1,rejoin@50:1,leave@10:0" in
  Alcotest.(check string) "sorted, stable" "leave@10:0,leave@50:1,rejoin@50:1"
    (Event.trace_to_string events)

let test_validate_rejects () =
  let reject name events =
    match Event.validate ~n_machines:4 events with
    | () -> Alcotest.failf "%s: expected rejection" name
    | exception Invalid_argument _ -> ()
  in
  reject "leave of absent" [ leave ~at:1 0; leave ~at:2 0 ];
  reject "rejoin of present" [ rejoin ~at:1 0 ];
  reject "negative time" [ leave ~at:(-1) 0 ];
  reject "no such machine" [ leave ~at:1 9 ];
  reject "shock fraction" [ { Event.at = 1; kind = Event.Battery_shock (0, 1.5) } ];
  reject "degrade factor" [ { Event.at = 1; kind = Event.Bandwidth_degrade (0, 0.) } ];
  (* a total blackout is applicable: the engine just stalls until a rejoin *)
  Event.validate ~n_machines:2 [ leave ~at:1 0; leave ~at:1 1; rejoin ~at:5 0 ]

(* ---- engine vs the static run ---- *)

let test_empty_trace_is_static_run () =
  let wl = workload () in
  let static = Slrh.run params wl in
  let o = churn [] in
  let key (p : Schedule.placement) = (p.task, p.machine, p.version, p.start, p.stop) in
  Alcotest.(check int) "T100" (Schedule.n_primary static.Slrh.schedule)
    (Schedule.n_primary o.Engine.schedule);
  Alcotest.(check int) "AET" (Schedule.aet static.Slrh.schedule)
    (Schedule.aet o.Engine.schedule);
  Alcotest.(check bool) "same placements" true
    (Array.map key (Schedule.placements static.Slrh.schedule)
    = Array.map key (Schedule.placements o.Engine.schedule));
  for j = 0 to Workload.n_machines wl - 1 do
    Testlib.close
      (Fmt.str "machine %d energy" j)
      (Schedule.energy_used static.Slrh.schedule j)
      (Schedule.energy_used o.Engine.schedule j)
  done;
  Alcotest.(check int) "one phase" 1 (List.length o.Engine.phases);
  Testlib.close "no sunk energy" 0. o.Engine.sunk_energy

let test_loss_at_cycle_zero () =
  let o = churn [ leave ~at:0 3 ] in
  Alcotest.(check int) "nothing discarded" 0 o.Engine.n_discarded;
  Testlib.close "no sunk energy" 0. o.Engine.sunk_energy;
  Alcotest.(check (list string)) "audit clean" [] (Engine.audit o);
  Array.iter
    (fun (p : Schedule.placement) ->
      Alcotest.(check bool) "never places on absent machine" true (p.machine <> 3))
    (Schedule.placements o.Engine.schedule)

let test_zero_length_outage () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let o = churn [ leave ~at 1; rejoin ~at 1 ] in
  (* the machine blinks: pre-outage work on it is discarded and its burn
     comes straight back as a rejoin debit, then it keeps scheduling *)
  Alcotest.(check bool) "machine is back" true o.Engine.up.(1);
  Alcotest.(check bool) "blink discards work" true (o.Engine.n_discarded > 0);
  Alcotest.(check bool) "debit billed" true (o.Engine.sunk_energy > 0.);
  Alcotest.(check (list string)) "audit clean" [] (Engine.audit o)

let test_every_machine_lost_once () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  for j = 0 to Workload.n_machines wl - 1 do
    let o = churn [ leave ~at j ] in
    check_audit (Fmt.str "lost %d" j) o;
    Array.iter
      (fun (p : Schedule.placement) ->
        if p.machine = j then Alcotest.failf "placement on lost machine %d" j)
      (Schedule.placements o.Engine.schedule);
    (* engine ledger: TEC = work energy + sunk charges *)
    let charged = ref 0. in
    for k = 0 to Workload.n_machines wl - 1 do
      charged := !charged +. Schedule.energy_charged o.Engine.schedule k
    done;
    Testlib.close (Fmt.str "sunk ledger (lost %d)" j) o.Engine.sunk_energy !charged
  done

let test_overlapping_outages () =
  let wl = workload () in
  let tau = Workload.tau wl in
  let o =
    churn
      [
        leave ~at:(tau / 10) 0;
        leave ~at:(tau / 8) 1;
        rejoin ~at:(tau / 4) 0;
        rejoin ~at:(tau / 3) 1;
      ]
  in
  check_audit "overlapping outages" o;
  Alcotest.(check bool) "all machines back" true (Array.for_all Fun.id o.Engine.up);
  Alcotest.(check int) "five phases" 5 (List.length o.Engine.phases);
  (* phase availability snapshots track the trace *)
  (match o.Engine.phases with
  | [ p0; p1; p2; p3; p4 ] ->
      Alcotest.(check bool) "phase 0 full" true (Array.for_all Fun.id p0.Engine.ph_up);
      Alcotest.(check bool) "phase 1 lost 0" false p1.Engine.ph_up.(0);
      Alcotest.(check bool) "phase 2 lost both" false
        (p2.Engine.ph_up.(0) || p2.Engine.ph_up.(1));
      Alcotest.(check bool) "phase 3: 0 back, 1 out" true
        (p3.Engine.ph_up.(0) && not p3.Engine.ph_up.(1));
      Alcotest.(check bool) "phase 4 full" true (Array.for_all Fun.id p4.Engine.ph_up)
  | _ -> Alcotest.fail "expected five phases")

(* ---- retry policies ---- *)

let test_retry_budget_zero_abandons () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let o = churn ~policy:(Retry.make ~budget:0 ()) [ leave ~at 1; rejoin ~at:(at * 2) 1 ] in
  Alcotest.(check bool) "discards happened" true (o.Engine.n_discarded > 0);
  Alcotest.(check int) "every discard abandoned" o.Engine.n_discarded o.Engine.n_failed;
  Alcotest.(check bool) "cannot complete" true (not o.Engine.completed);
  (* abandoned tasks stay unmapped *)
  Array.iteri
    (fun task count ->
      if count > 0 then
        match Schedule.placement o.Engine.schedule task with
        | Some _ -> Alcotest.failf "abandoned task %d was remapped" task
        | None -> ())
    o.Engine.discards

let test_defer_without_rejoin_holds () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let policy = Retry.make ~timing:Retry.Defer_to_rejoin () in
  let o = churn ~policy [ leave ~at 1 ] in
  Alcotest.(check bool) "work held" true (o.Engine.n_held > 0);
  Alcotest.(check bool) "incomplete" true (not o.Engine.completed);
  (* the same trace with a rejoin releases the held work *)
  let o2 = churn ~policy [ leave ~at 1; rejoin ~at:(at * 2) 1 ] in
  Alcotest.(check int) "rejoin releases holds" 0 o2.Engine.n_held;
  Alcotest.(check bool) "released work gets remapped" true
    (Schedule.n_mapped o2.Engine.schedule > Schedule.n_mapped o.Engine.schedule)

(* ---- shocks and degrades ---- *)

let test_battery_shock_drains () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let baseline = churn [] in
  let o = churn [ { Event.at; kind = Event.Battery_shock (1, 0.5) } ] in
  Alcotest.(check bool) "shock recorded" true (o.Engine.shock_energy > 0.);
  Testlib.close "shock is the only sunk charge" o.Engine.shock_energy o.Engine.sunk_energy;
  Alcotest.(check (list string)) "audit clean" [] (Engine.audit o);
  Alcotest.(check bool) "no free capacity" true
    (Schedule.energy_used o.Engine.schedule 1 >= 0.);
  Alcotest.(check bool) "shock cannot help T100" true
    (Schedule.n_primary o.Engine.schedule
    <= Schedule.n_primary baseline.Engine.schedule)

let test_bandwidth_degrade () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let o = churn [ { Event.at; kind = Event.Bandwidth_degrade (1, 0.25) } ] in
  (* Validate.check recomputes transfer durations from the final (degraded)
     grid, so it cannot judge this run; the audit trusts recorded slots *)
  Alcotest.(check (list string)) "audit clean" [] (Engine.audit o);
  let original = Agrid_platform.Grid.machine (Workload.grid wl) 1 in
  let degraded = Agrid_platform.Grid.machine (Workload.grid o.Engine.workload) 1 in
  Testlib.close "bandwidth quartered"
    (0.25 *. original.Agrid_platform.Machine.bandwidth)
    degraded.Agrid_platform.Machine.bandwidth;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Machine.scale_bandwidth: factor must be positive") (fun () ->
      ignore (Workload.degrade_bandwidth wl ~machine:1 ~factor:0.))

(* ---- an outage trace surfaces the final phase ---- *)

let test_outage_final_phase_surfaced () =
  let tau = Workload.tau (workload ()) in
  let o = churn [ leave ~at:(tau / 10) 1; rejoin ~at:(tau / 2) 1 ] in
  let final = (List.nth o.Engine.phases (List.length o.Engine.phases - 1)).Engine.ph_outcome in
  Alcotest.(check bool) "final phase resumes at the rejoin" true
    (final.Slrh.final_clock >= tau / 2);
  Alcotest.(check bool) "final phase ends on the final schedule" true
    (final.Slrh.schedule == o.Engine.schedule);
  Alcotest.check_raises "bad machine up front"
    (Invalid_argument "Churn.Event.validate: no such machine 9") (fun () ->
      ignore (churn [ leave ~at:10 9; rejoin ~at:20 9 ]))

(* ---- sampling and the Monte Carlo campaign ---- *)

let test_sample_traces_applicable () =
  let rng = Agrid_prng.Splitmix64.of_int 7 in
  let trace =
    Sample.exponential_trace rng ~n_machines:4 ~horizon:1000
      ~up_mean:(fun _ -> 200.)
      ~down_mean:(fun _ -> 50.)
  in
  Event.validate ~n_machines:4 trace;
  List.iter
    (fun (e : Event.t) ->
      Alcotest.(check bool) "within horizon" true (e.Event.at >= 0 && e.Event.at < 1000))
    trace;
  (* same seed, same trace *)
  let trace' =
    Sample.exponential_trace (Agrid_prng.Splitmix64.of_int 7) ~n_machines:4 ~horizon:1000
      ~up_mean:(fun _ -> 200.)
      ~down_mean:(fun _ -> 50.)
  in
  Alcotest.(check string) "deterministic" (Event.trace_to_string trace)
    (Event.trace_to_string trace')

let test_campaign_reproducible () =
  let config = Agrid_exper.Config.smoke ~seed:5 () in
  let run () =
    Agrid_exper.Campaign.run ~replicates:3 ~intensities:[ 0.0; 2.0 ] ~seed:99 config
  in
  let a = run () and b = run () in
  Alcotest.(check int) "two levels" 2 (List.length a);
  Alcotest.(check bool) "same seed, same campaign" true (a = b);
  let static = List.hd a in
  Testlib.close "intensity 0 always completes" 1. static.Agrid_exper.Campaign.completion_rate;
  Testlib.close "intensity 0 sinks nothing" 0. static.Agrid_exper.Campaign.mean_sunk;
  let churned = List.nth a 1 in
  Alcotest.(check bool) "churn produces events" true
    (churned.Agrid_exper.Campaign.mean_events > 0.)

let suites =
  [
    ( "churn",
      [
        Alcotest.test_case "event parse roundtrip" `Quick test_parse_roundtrip;
        Alcotest.test_case "trace sort stable" `Quick test_trace_sorted_stable;
        Alcotest.test_case "trace validation" `Quick test_validate_rejects;
        Alcotest.test_case "empty trace = static run" `Quick test_empty_trace_is_static_run;
        Alcotest.test_case "loss at cycle 0" `Quick test_loss_at_cycle_zero;
        Alcotest.test_case "zero-length outage" `Quick test_zero_length_outage;
        Alcotest.test_case "every machine lost once" `Quick test_every_machine_lost_once;
        Alcotest.test_case "overlapping outages" `Quick test_overlapping_outages;
        Alcotest.test_case "retry budget 0 abandons" `Quick test_retry_budget_zero_abandons;
        Alcotest.test_case "defer holds until rejoin" `Quick test_defer_without_rejoin_holds;
        Alcotest.test_case "battery shock" `Quick test_battery_shock_drains;
        Alcotest.test_case "bandwidth degrade" `Quick test_bandwidth_degrade;
        Alcotest.test_case "outage final phase" `Quick test_outage_final_phase_surfaced;
        Alcotest.test_case "sampled traces applicable" `Quick test_sample_traces_applicable;
        Alcotest.test_case "campaign reproducible" `Quick test_campaign_reproducible;
      ] );
  ]
