open Agrid_workload
open Agrid_sched
open Agrid_core
open Agrid_baselines

let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3

(* ---- greedy ---- *)

let test_greedy_completes () =
  let wl = Testlib.small_workload () in
  let o = Greedy.run wl in
  Alcotest.(check bool) "all mapped" true (Schedule.all_mapped o.Greedy.schedule);
  Alcotest.(check int) "makespan = aet" (Schedule.aet o.Greedy.schedule) o.Greedy.makespan;
  let r = Validate.check o.Greedy.schedule in
  Alcotest.(check (list string)) "structurally valid" [] r.Validate.violations

let test_greedy_all_primary () =
  let wl = Testlib.small_workload () in
  let o = Greedy.run wl in
  Array.iter
    (fun (p : Schedule.placement) ->
      if not (Version.is_primary p.Schedule.version) then
        Alcotest.fail "greedy mapped a secondary")
    (Schedule.placements o.Greedy.schedule)

let test_greedy_secondary_mode () =
  let wl = Testlib.small_workload () in
  let o = Greedy.run ~version:Version.Secondary wl in
  Alcotest.(check int) "no primaries" 0 (Schedule.n_primary o.Greedy.schedule);
  Alcotest.(check bool) "faster than primary" true
    (o.Greedy.makespan < (Greedy.run wl).Greedy.makespan)

let test_greedy_beats_single_machine () =
  (* MCT must not be worse than putting everything on machine 0 *)
  let wl = Testlib.diamond_workload () in
  let o = Greedy.run wl in
  (* serial on machine 0: 100 + 200 + 300 + 140 = 740 *)
  Alcotest.(check bool) "beats serial" true (o.Greedy.makespan <= 740)

let test_greedy_deterministic () =
  let wl = Testlib.small_workload () in
  Alcotest.(check int) "same makespan" (Greedy.run wl).Greedy.makespan
    (Greedy.run wl).Greedy.makespan

(* ---- max-max ---- *)

let test_maxmax_validates () =
  let wl = Testlib.small_workload () in
  let o = Maxmax.run (Maxmax.default_params weights) wl in
  let r = Validate.check o.Maxmax.schedule in
  Alcotest.(check (list string)) "structurally valid" [] r.Validate.violations;
  (* with respect_tau the AET can never exceed tau *)
  Alcotest.(check bool) "within tau" true (Schedule.aet o.Maxmax.schedule <= Workload.tau wl)

let test_maxmax_tau_gate_binds () =
  (* without the gate, Max-Max overruns tau at gamma = 0 weights (energy
     minimisation piles primaries onto slow machines) *)
  let wl = Testlib.small_workload () in
  let w = Objective.make_weights ~alpha:0.5 ~beta:0.5 in
  let gated = Maxmax.run (Maxmax.default_params w) wl in
  let wild = Maxmax.run { (Maxmax.default_params w) with Maxmax.respect_tau = false } wl in
  Alcotest.(check bool) "gated within tau" true
    (Schedule.aet gated.Maxmax.schedule <= Workload.tau wl);
  Alcotest.(check bool) "ungated completes" true wild.Maxmax.completed;
  Alcotest.(check bool) "ungated overruns" true
    (Schedule.aet wild.Maxmax.schedule > Workload.tau wl)

let test_maxmax_rounds_bounded () =
  let wl = Testlib.small_workload () in
  let o = Maxmax.run (Maxmax.default_params weights) wl in
  Alcotest.(check bool) "rounds <= tasks+1" true
    (o.Maxmax.stats.Maxmax.rounds <= Workload.n_tasks wl + 1)

let test_maxmax_both_versions_considered () =
  (* with beta-heavy weights Max-Max should choose secondaries; with
     alpha-heavy, primaries *)
  let wl = Testlib.small_workload () in
  let heavy_beta =
    Maxmax.run (Maxmax.default_params (Objective.make_weights ~alpha:0.05 ~beta:0.9)) wl
  in
  let heavy_alpha =
    Maxmax.run (Maxmax.default_params (Objective.make_weights ~alpha:0.9 ~beta:0.05)) wl
  in
  Alcotest.(check bool) "beta-heavy maps fewer primaries" true
    (Schedule.n_primary heavy_beta.Maxmax.schedule
    < Schedule.n_primary heavy_alpha.Maxmax.schedule)

let test_maxmax_starved_reports_incomplete () =
  let spec = { (Testlib.diamond_spec ()) with Spec.battery_scale = 1e-9 } in
  let wl =
    Workload.build spec ~etc:(Testlib.diamond_etc ()) ~dag:(Testlib.diamond_dag ())
      ~data_bits:(Testlib.diamond_data ()) ~etc_index:0 ~dag_index:0
      ~case:Agrid_platform.Grid.A
  in
  let o = Maxmax.run (Maxmax.default_params weights) wl in
  Alcotest.(check bool) "incomplete" false o.Maxmax.completed;
  Alcotest.(check int) "nothing mapped" 0 (Schedule.n_mapped o.Maxmax.schedule)

(* ---- random mapper ---- *)

let test_random_mapper_validates_structure () =
  let wl = Testlib.small_workload () in
  let o = Random_mapper.run (Testlib.rng ~seed:3 ()) wl in
  Alcotest.(check bool) "all mapped" true (Schedule.all_mapped o.Random_mapper.schedule);
  let r = Validate.check o.Random_mapper.schedule in
  Alcotest.(check (list string)) "structurally valid" [] r.Validate.violations

let test_random_mapper_bias () =
  let wl = Testlib.small_workload () in
  let all_primary = Random_mapper.run ~primary_bias:1. (Testlib.rng ()) wl in
  let none_primary = Random_mapper.run ~primary_bias:0. (Testlib.rng ()) wl in
  Alcotest.(check int) "bias 1 -> all primary" (Workload.n_tasks wl)
    (Schedule.n_primary all_primary.Random_mapper.schedule);
  Alcotest.(check int) "bias 0 -> none" 0
    (Schedule.n_primary none_primary.Random_mapper.schedule)

(* qcheck: random mappings always produce structurally valid schedules —
   the engine's invariants hold under arbitrary placement pressure *)
let test_random_mapper_qcheck () =
  let gen = QCheck2.Gen.(pair (int_range 0 10_000) (float_range 0. 1.)) in
  let wl = Testlib.small_workload () in
  let prop (seed, primary_bias) =
    let o = Random_mapper.run ~primary_bias (Testlib.rng ~seed ()) wl in
    let r = Validate.check o.Random_mapper.schedule in
    r.Validate.complete && r.Validate.violations = []
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:60 ~name:"random mappings validate" gen prop)

(* ---- min-min ---- *)

let test_minmin_secondary_allowed_all_secondary () =
  (* secondaries are always shorter, so pure completion-time greed never
     picks a primary *)
  let wl = Testlib.small_workload () in
  let o =
    Minmin.run
      ~params:{ Minmin.default_params with Minmin.version_policy = Minmin.Secondary_allowed }
      wl
  in
  Alcotest.(check bool) "completed" true o.Minmin.completed;
  Alcotest.(check int) "no primaries" 0 (Schedule.n_primary o.Minmin.schedule);
  let r = Validate.check o.Minmin.schedule in
  Alcotest.(check (list string)) "valid" [] r.Validate.violations

let test_minmin_prefer_primary_maps_primaries () =
  let wl = Testlib.small_workload () in
  let o = Minmin.run wl in
  Alcotest.(check bool) "completed" true o.Minmin.completed;
  Alcotest.(check bool) "many primaries" true
    (Schedule.n_primary o.Minmin.schedule > Workload.n_tasks wl / 2);
  let r = Validate.check o.Minmin.schedule in
  Alcotest.(check (list string)) "structurally valid" [] r.Validate.violations

let test_minmin_respects_tau () =
  let wl = Testlib.small_workload () in
  let o = Minmin.run wl in
  Alcotest.(check bool) "within tau" true (Schedule.aet o.Minmin.schedule <= Workload.tau wl)

let test_minmin_rounds_equal_tasks_on_completion () =
  let wl = Testlib.small_workload () in
  let o = Minmin.run wl in
  if o.Minmin.completed then
    Alcotest.(check int) "one commit per round" (Workload.n_tasks wl) o.Minmin.rounds

let test_minmin_minimises_makespan_vs_maxmax () =
  (* Min-Min's completion greed should finish no later than Max-Max's
     objective greed under comparable pools (both tau-gated) *)
  let wl = Testlib.small_workload () in
  let mm = Minmin.run
      ~params:{ Minmin.default_params with Minmin.version_policy = Minmin.Secondary_allowed } wl
  in
  let xx = Maxmax.run (Maxmax.default_params weights) wl in
  Alcotest.(check bool) "minmin finishes earlier" true
    (Schedule.aet mm.Minmin.schedule <= Schedule.aet xx.Maxmax.schedule)

(* ---- calibrate ---- *)

let test_calibrate_positive_and_deterministic () =
  let spec = Testlib.small_spec () in
  let tau1 = Calibrate.tau_cycles spec and tau2 = Calibrate.tau_cycles spec in
  Alcotest.(check int) "deterministic" tau1 tau2;
  Alcotest.(check bool) "positive" true (tau1 > 0)

let test_calibrate_slack () =
  let spec = Testlib.small_spec () in
  let base = Calibrate.tau_cycles spec in
  let slacked = Calibrate.tau_cycles ~slack:2. spec in
  (* ceil can add a cycle *)
  Alcotest.(check bool) "slack doubles" true (abs (slacked - (2 * base)) <= 2)

let test_calibrated_spec_roundtrip () =
  let spec = Testlib.small_spec () in
  let cal = Calibrate.calibrated_spec spec in
  Alcotest.(check int) "tau installed" (Calibrate.tau_cycles spec) (Spec.tau_cycles cal)

let test_calibrate_validation () =
  Alcotest.check_raises "bad slack"
    (Invalid_argument "Calibrate.tau_cycles: slack must be positive") (fun () ->
      ignore (Calibrate.tau_cycles ~slack:0. (Testlib.small_spec ())))

(* ---- schedule digests ----

   None of these planners has a rescan oracle, so their schedules are
   pinned by digest: every placement and every transfer, floats by bits.
   The expected values come from the copy-on-write planner (the oracle in
   test_schedule), so any drift in the planning primitive shows up here
   as a digest mismatch. *)

let schedule_digest sched =
  let b = Buffer.create 4096 in
  let word s = Buffer.add_string b (s ^ " ") in
  let int i = word (string_of_int i) in
  let bits f = word (Int64.to_string (Int64.bits_of_float f)) in
  Array.iter
    (fun (p : Schedule.placement) ->
      int p.Schedule.task;
      int (if Version.is_primary p.Schedule.version then 1 else 0);
      int p.Schedule.machine;
      int p.Schedule.start;
      int p.Schedule.stop)
    (Schedule.placements sched);
  Buffer.add_char b '|';
  Array.iter
    (fun (t : Schedule.transfer) ->
      int t.Schedule.edge;
      int t.Schedule.src_task;
      int t.Schedule.dst_task;
      int t.Schedule.src;
      int t.Schedule.dst;
      int t.Schedule.start;
      int t.Schedule.stop;
      bits t.Schedule.bits;
      bits t.Schedule.energy)
    (Schedule.transfers sched);
  bits (Schedule.tec sched);
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_planners =
  let slrh variant wl =
    (Slrh.run (Slrh.default_params ~variant weights) wl).Slrh.schedule
  in
  [
    ("slrh1", slrh Slrh.V1);
    ("slrh2", slrh Slrh.V2);
    ("slrh3", slrh Slrh.V3);
    ("minmin", fun wl -> (Minmin.run wl).Minmin.schedule);
    ("maxmax", fun wl -> (Maxmax.run (Maxmax.default_params weights) wl).Maxmax.schedule);
    ("greedy", fun wl -> (Greedy.run wl).Greedy.schedule);
    ( "random",
      fun wl -> (Random_mapper.run (Testlib.rng ~seed:5 ()) wl).Random_mapper.schedule );
    ("lrnn", fun wl -> (Agrid_lrnn.Lrnn.run wl).Agrid_lrnn.Lrnn.schedule);
  ]

let expected_digests =
  [
    (("slrh1", 11), "566db1962f8c5057b642563de5f4a735");
    (("slrh2", 11), "e819b749529fdf407b84f8f83dfd4b24");
    (("slrh3", 11), "1a933228f237d83221f5658be4dc533e");
    (("minmin", 11), "489a34a3a5c1c90be628415fa3fabead");
    (("maxmax", 11), "99fa0c7763bb0db1981322936dcfb26a");
    (("greedy", 11), "8de85501f922901c2e74017ad8d4b994");
    (("random", 11), "587fb7479dc2939af8e582e99faea167");
    (("lrnn", 11), "cc416570995bc0936f5ea3d2c8b1aeb6");
    (("slrh1", 23), "e95450cb816f345753265d701c3858c4");
    (("slrh2", 23), "2655a0fe0e8636fba6254caa6eaf9411");
    (("slrh3", 23), "ffe483f36ca131a32a914284a1eeeaf3");
    (("minmin", 23), "690980be61c7ea92a63095bc7f20439e");
    (("maxmax", 23), "cef457ef7b60eb950b7ad9f628ecfcfb");
    (("greedy", 23), "2f2b21d17c6e1a49faa9b6e53d7c48f5");
    (("random", 23), "512fae12f54c71b3c42b67295f857ca6");
    (("lrnn", 23), "c7f8ccf1d2ac1a024afcb56c097b964f")
  ]

let test_schedule_digests () =
  List.iter
    (fun seed ->
      let wl = Testlib.small_workload ~seed () in
      List.iter
        (fun (name, run) ->
          let sched = run wl in
          let label = Fmt.str "%s seed %d" name seed in
          (* an all-local schedule would leave the transfer path unpinned *)
          Alcotest.(check bool) (label ^ " has transfers") true
            (Array.length (Schedule.transfers sched) > 0);
          Alcotest.(check string) label
            (List.assoc (name, seed) expected_digests)
            (schedule_digest sched))
        digest_planners)
    [ 11; 23 ]

(* Figure 6 timings come from the monotonic clock: never negative. *)
let test_wall_seconds_nonnegative () =
  let wl = Testlib.small_workload () in
  List.iter
    (fun (name, wall) ->
      Alcotest.(check bool) (name ^ " wall_seconds >= 0") true (wall >= 0.))
    [
      ("minmin", (Minmin.run wl).Minmin.wall_seconds);
      ("maxmax", (Maxmax.run (Maxmax.default_params weights) wl).Maxmax.wall_seconds);
      ("greedy", (Greedy.run wl).Greedy.wall_seconds);
      ("random", (Random_mapper.run (Testlib.rng ()) wl).Random_mapper.wall_seconds);
      ("lrnn", (Agrid_lrnn.Lrnn.run wl).Agrid_lrnn.Lrnn.wall_seconds);
    ]

let suites =
  [
    ( "baselines",
      [
        Alcotest.test_case "greedy completes+validates" `Quick test_greedy_completes;
        Alcotest.test_case "greedy all primary" `Quick test_greedy_all_primary;
        Alcotest.test_case "greedy secondary mode" `Quick test_greedy_secondary_mode;
        Alcotest.test_case "greedy beats serial" `Quick test_greedy_beats_single_machine;
        Alcotest.test_case "greedy deterministic" `Quick test_greedy_deterministic;
        Alcotest.test_case "maxmax validates" `Quick test_maxmax_validates;
        Alcotest.test_case "maxmax tau gate" `Quick test_maxmax_tau_gate_binds;
        Alcotest.test_case "maxmax rounds bounded" `Quick test_maxmax_rounds_bounded;
        Alcotest.test_case "maxmax version choice" `Quick
          test_maxmax_both_versions_considered;
        Alcotest.test_case "maxmax starvation" `Quick test_maxmax_starved_reports_incomplete;
        Alcotest.test_case "random mapper validates" `Quick
          test_random_mapper_validates_structure;
        Alcotest.test_case "random mapper bias" `Quick test_random_mapper_bias;
        Alcotest.test_case "random mapper qcheck" `Quick test_random_mapper_qcheck;
        Alcotest.test_case "minmin secondary-allowed" `Quick
          test_minmin_secondary_allowed_all_secondary;
        Alcotest.test_case "minmin prefer-primary" `Quick
          test_minmin_prefer_primary_maps_primaries;
        Alcotest.test_case "minmin respects tau" `Quick test_minmin_respects_tau;
        Alcotest.test_case "minmin rounds" `Quick test_minmin_rounds_equal_tasks_on_completion;
        Alcotest.test_case "minmin vs maxmax makespan" `Quick
          test_minmin_minimises_makespan_vs_maxmax;
        Alcotest.test_case "calibrate deterministic" `Quick
          test_calibrate_positive_and_deterministic;
        Alcotest.test_case "calibrate slack" `Quick test_calibrate_slack;
        Alcotest.test_case "calibrated spec" `Quick test_calibrated_spec_roundtrip;
        Alcotest.test_case "calibrate validation" `Quick test_calibrate_validation;
        Alcotest.test_case "schedule digests pinned" `Quick test_schedule_digests;
        Alcotest.test_case "wall_seconds nonnegative" `Quick test_wall_seconds_nonnegative;
      ] );
  ]
