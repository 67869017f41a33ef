open Agrid_workload
open Agrid_sched
open Agrid_lrnn

let workload () = Testlib.small_workload ~seed:11 ()

let test_completes_and_validates () =
  List.iter
    (fun case ->
      let wl = Testlib.small_workload ~seed:11 ~case () in
      let o = Lrnn.run wl in
      Alcotest.(check bool) "completed" true o.Lrnn.completed;
      let r = Validate.check o.Lrnn.schedule in
      Alcotest.(check (list string)) "structurally valid" [] r.Validate.violations;
      Alcotest.(check bool)
        (Agrid_platform.Grid.case_name case ^ " feasible after repair")
        true
        (Validate.feasible r))
    Agrid_platform.Grid.all_cases

let test_deterministic () =
  let a = Lrnn.run (workload ()) and b = Lrnn.run (workload ()) in
  Alcotest.(check int) "same T100" (Schedule.n_primary a.Lrnn.schedule)
    (Schedule.n_primary b.Lrnn.schedule);
  Alcotest.(check int) "same demotions" a.Lrnn.demoted b.Lrnn.demoted

let test_dual_trace_shape () =
  let o = Lrnn.run (workload ()) in
  Alcotest.(check int) "trace length" 60 (List.length o.Lrnn.dual_trace);
  List.iteri
    (fun i p -> Alcotest.(check int) "iteration numbering" i p.Lrnn.iteration)
    o.Lrnn.dual_trace;
  (* dual_bound is the minimum over the trace *)
  let min_dual =
    List.fold_left (fun acc p -> Float.min acc p.Lrnn.dual_value) infinity o.Lrnn.dual_trace
  in
  Testlib.close "dual bound" min_dual o.Lrnn.dual_bound

let test_dual_bound_dominates_t100 () =
  (* weak duality: the relaxed dual bounds the (relaxed) optimum, which is
     itself >= any feasible T100 the repair produces *)
  let o = Lrnn.run (workload ()) in
  Alcotest.(check bool) "T100 <= dual bound" true
    (float_of_int (Schedule.n_primary o.Lrnn.schedule) <= o.Lrnn.dual_bound +. 1e-6)

let test_violations_shrink () =
  (* the multiplier iteration must reduce the worst relative energy
     violation between the first and last iterations *)
  let o = Lrnn.run (workload ()) in
  match o.Lrnn.dual_trace with
  | first :: _ :: _ ->
      let last = List.nth o.Lrnn.dual_trace (List.length o.Lrnn.dual_trace - 1) in
      Alcotest.(check bool) "energy violation non-increasing" true
        (last.Lrnn.max_energy_violation <= first.Lrnn.max_energy_violation +. 1e-9)
  | _ -> Alcotest.fail "trace too short"

let test_all_secondary_fallback () =
  (* with a tiny battery the repair demotes everything and the schedule is
     all-secondary but still complete *)
  let spec =
    { (Testlib.small_spec ~seed:11 ()) with Spec.battery_scale = 0.002 }
  in
  let wl = Workload.build spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let o = Lrnn.run wl in
  Alcotest.(check bool) "completed" true o.Lrnn.completed;
  Alcotest.(check bool) "mostly secondaries" true
    (Schedule.n_primary o.Lrnn.schedule < Workload.n_tasks wl / 4)

let suites =
  [
    ( "lrnn",
      [
        Alcotest.test_case "completes+validates all cases" `Quick test_completes_and_validates;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "dual trace shape" `Quick test_dual_trace_shape;
        Alcotest.test_case "weak duality" `Quick test_dual_bound_dominates_t100;
        Alcotest.test_case "violations shrink" `Quick test_violations_shrink;
        Alcotest.test_case "all-secondary fallback" `Quick test_all_secondary_fallback;
      ] );
  ]
