(* Decision-ledger tests: the no-op/ledger-off/ledger-on runs must be
   bit-identical (the ledger only observes), the recorded stream must
   answer the explain queries, JSONL must round-trip through the in-tree
   parser, and ledger-diff must localise the first divergent decision
   between runs with different objective weights. *)

open Agrid_obs
open Agrid_core

let fingerprint sched =
  ( Array.to_list (Agrid_sched.Schedule.placements sched),
    Array.to_list (Agrid_sched.Schedule.transfers sched),
    Agrid_sched.Schedule.tec sched,
    Agrid_sched.Schedule.aet sched,
    Agrid_sched.Schedule.n_primary sched )

let params_with ?(alpha = 0.3) ?(beta = 0.3) obs =
  let weights = Objective.make_weights ~alpha ~beta in
  { (Slrh.default_params weights) with Slrh.obs }

let ledger_of sink =
  match Sink.ledger sink with
  | Some led -> led
  | None -> Alcotest.fail "sink created with ~ledger:true carries no ledger"

let run_with_ledger ?alpha ?beta workload =
  let sink = Sink.create ~ledger:true () in
  let o = Slrh.run (params_with ?alpha ?beta sink) workload in
  (o, ledger_of sink)

let count_entries pred led =
  let n = ref 0 in
  Ledger.iter (fun e -> if pred e then incr n) led;
  !n

(* ---- recording is pure observation ---- *)

let test_bit_identical_with_ledger () =
  let workload = Testlib.small_workload () in
  let plain = Slrh.run (params_with Sink.noop) workload in
  let o, led = run_with_ledger workload in
  Alcotest.(check bool) "identical schedules" true
    (fingerprint plain.Slrh.schedule = fingerprint o.Slrh.schedule);
  (* A ledger run takes the rescan walk, which skips no plan and jumps no
     step, so it may do more work than the plain soa run, never less;
     the decisions (steps passed, assignments) must match exactly. *)
  let ps = plain.Slrh.stats and ls = o.Slrh.stats in
  Alcotest.(check int) "identical clock steps" ps.Slrh.clock_steps ls.Slrh.clock_steps;
  Alcotest.(check int) "identical assignments" ps.Slrh.assignments ls.Slrh.assignments;
  Alcotest.(check int) "identical final clock" plain.Slrh.final_clock o.Slrh.final_clock;
  Alcotest.(check bool) "plain run plans no more than the ledger run" true
    (ps.Slrh.pools_built <= ls.Slrh.pools_built
    && ps.Slrh.candidates_scored <= ls.Slrh.candidates_scored
    && ps.Slrh.plans_attempted <= ls.Slrh.plans_attempted);
  (* and the ledger actually saw the run: one commit per assignment *)
  Alcotest.(check int) "one commit per assignment" o.Slrh.stats.Slrh.assignments
    (count_entries (function Ledger.Commit _ -> true | _ -> false) led);
  Alcotest.(check bool) "candidate fates recorded" true
    (count_entries (function Ledger.Candidate _ -> true | _ -> false) led > 0)

let test_ledger_off_sink_records_nothing () =
  let workload = Testlib.small_workload () in
  let sink = Sink.create () in
  ignore (Slrh.run (params_with sink) workload);
  Alcotest.(check bool) "plain active sink carries no ledger" true
    (Sink.ledger sink = None)

(* ---- explain queries ---- *)

let test_explain_task () =
  let workload = Testlib.small_workload () in
  let _, led = run_with_ledger workload in
  let committed =
    Array.to_list (Ledger.entries led)
    |> List.filter_map (function Ledger.Commit { task; _ } -> Some task | _ -> None)
  in
  (match committed with
  | [] -> Alcotest.fail "no commits recorded"
  | task :: _ -> (
      match Ledger.explain_task led ~task with
      | None -> Alcotest.failf "no explanation for committed subtask %d" task
      | Some report ->
          Alcotest.(check bool) "report names the commit" true
            (Testlib.contains report "COMMIT");
          Alcotest.(check bool) "report decomposes the score" true
            (Testlib.contains report "alpha")));
  Alcotest.(check (option string)) "unseen task has no record" None
    (Ledger.explain_task led ~task:100000)

let test_explain_idle () =
  let workload = Testlib.small_workload () in
  let _, led = run_with_ledger workload in
  let idles =
    Array.to_list (Ledger.entries led)
    |> List.filter_map (function
         | Ledger.Idle { clock; machine; _ } -> Some (clock, machine)
         | _ -> None)
  in
  (match idles with
  | [] -> Alcotest.fail "no idle entries recorded"
  | (clock, machine) :: _ -> (
      match Ledger.explain_idle led ~machine ~clock with
      | None -> Alcotest.failf "no explanation for machine %d at clock %d" machine clock
      | Some report ->
          Alcotest.(check bool) "report mentions idling" true
            (Testlib.contains report "idle")));
  Alcotest.(check (option string)) "unrecorded step has no explanation" None
    (Ledger.explain_idle led ~machine:0 ~clock:max_int)

(* ---- JSONL round trip ---- *)

let test_jsonl_round_trip () =
  let workload = Testlib.small_workload () in
  let _, led = run_with_ledger workload in
  let text = Ledger.to_jsonl led in
  let back = Ledger.of_jsonl text in
  Alcotest.(check int) "entry count survives" (Ledger.length led) (Ledger.length back);
  (* floats pass through %.9g, so re-serialisation is the fixed point *)
  Alcotest.(check bool) "serialisation is stable" true (Ledger.to_jsonl back = text);
  (* the decision stream survives exactly (it holds no floats) *)
  Alcotest.(check (option int)) "no divergence against itself" None
    (Option.map (fun d -> d.Ledger.div_index) (Ledger.first_divergence led back));
  (* exhausted walks survive exactly, and the commit fields the trace view
     reads (pool score, remaining battery) to 9 significant digits *)
  let exhausted = count_entries (function Ledger.Exhausted _ -> true | _ -> false) in
  Alcotest.(check bool) "the run exhausted some walk" true (exhausted led > 0);
  Alcotest.(check int) "exhausted entries survive" (exhausted led) (exhausted back);
  Array.iter2
    (fun a b ->
      match (a, b) with
      | Ledger.Exhausted x, Ledger.Exhausted y ->
          Alcotest.(check (triple int int int)) "exhausted fields"
            (x.clock, x.machine, x.pool_size) (y.clock, y.machine, y.pool_size)
      | Ledger.Commit x, Ledger.Commit y ->
          Testlib.close_rel ~rel:1e-8 "pool score" x.pool_score y.pool_score;
          Testlib.close_rel ~rel:1e-8 "energy remaining" x.energy_remaining
            y.energy_remaining
      | _ -> ())
    (Ledger.entries led) (Ledger.entries back)

let test_of_jsonl_malformed () =
  Alcotest.(check bool) "malformed line is reported with its number" true
    (try
       ignore (Ledger.of_jsonl "{\"type\":\"commit\"\n");
       false
     with Invalid_argument msg -> Testlib.contains msg "line 1")

(* ---- diff localisation ---- *)

let test_diff_localises_weight_change () =
  let workload = Testlib.small_workload () in
  let _, led_a = run_with_ledger ~alpha:0.3 ~beta:0.3 workload in
  let _, led_a' = run_with_ledger ~alpha:0.3 ~beta:0.3 workload in
  let _, led_b = run_with_ledger ~alpha:0.7 ~beta:0.1 workload in
  Alcotest.(check (option int)) "same weights, identical decision stream" None
    (Option.map (fun d -> d.Ledger.div_index) (Ledger.first_divergence led_a led_a'));
  match Ledger.first_divergence led_a led_b with
  | None -> Alcotest.fail "different weights must diverge somewhere"
  | Some d ->
      Alcotest.(check bool) "divergence has both sides" true
        (d.Ledger.div_left <> None && d.Ledger.div_right <> None);
      Alcotest.(check bool) "divergence lies within both streams" true
        (d.Ledger.div_index >= 0
        && d.Ledger.div_index < List.length (Ledger.decisions led_a)
        && d.Ledger.div_index < List.length (Ledger.decisions led_b));
      (* diffing is symmetric in where the streams part ways *)
      (match Ledger.first_divergence led_b led_a with
      | None -> Alcotest.fail "reversed diff must also diverge"
      | Some d' ->
          Alcotest.(check int) "symmetric divergence index" d.Ledger.div_index
            d'.Ledger.div_index);
      (* the report renders both sides *)
      let report = Fmt.str "%a" Ledger.pp_divergence d in
      Alcotest.(check bool) "report shows the divergence index" true
        (Testlib.contains report (string_of_int d.Ledger.div_index))

(* ---- churn integration ---- *)

let test_churn_ledger_entries () =
  let workload = Testlib.small_workload () in
  let tau = Agrid_workload.Workload.tau workload in
  let events =
    [
      { Agrid_churn.Event.at = tau / 8; kind = Agrid_churn.Event.Leave 1 };
      { Agrid_churn.Event.at = tau / 2; kind = Agrid_churn.Event.Rejoin 1 };
    ]
  in
  let plain = Dynamic.run_churn (params_with Sink.noop) workload events in
  let sink = Sink.create ~ledger:true () in
  let o = Dynamic.run_churn (params_with sink) workload events in
  Alcotest.(check bool) "identical schedules" true
    (fingerprint plain.Agrid_churn.Engine.schedule
    = fingerprint o.Agrid_churn.Engine.schedule);
  let led = ledger_of sink in
  Alcotest.(check int) "both grid transitions recorded" 2
    (count_entries (function Ledger.Churn _ -> true | _ -> false) led);
  Alcotest.(check bool) "down machine recorded idle" true
    (count_entries
       (function Ledger.Idle { cause = Ledger.Down; machine = 1; _ } -> true | _ -> false)
       led
    > 0)

let suites =
  [
    ( "ledger",
      [
        Alcotest.test_case "bit-identical with ledger on" `Quick test_bit_identical_with_ledger;
        Alcotest.test_case "ledger-off sink records nothing" `Quick test_ledger_off_sink_records_nothing;
        Alcotest.test_case "explain task" `Quick test_explain_task;
        Alcotest.test_case "explain idle" `Quick test_explain_idle;
        Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
        Alcotest.test_case "of_jsonl malformed line" `Quick test_of_jsonl_malformed;
        Alcotest.test_case "diff localises weight change" `Quick test_diff_localises_weight_change;
        Alcotest.test_case "churn ledger entries" `Quick test_churn_ledger_entries;
      ] );
  ]
