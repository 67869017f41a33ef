open Agrid_exper
open Agrid_report

let config = Config.smoke ~seed:77 ()

(* the evaluation sweep is the expensive fixture: run once, reuse *)
let evaluation = lazy (Evaluation.run config)

let test_config_scenarios () =
  Alcotest.(check int) "2x1 scenarios" 2 (List.length (Config.scenarios config));
  let d = Config.default () in
  Alcotest.(check int) "default 3x3" 9 (List.length (Config.scenarios d))

let test_table1_contents () =
  let t = Table.to_string (Experiments.table1 ()) in
  Alcotest.(check bool) "case A row" true (Testlib.contains t "Case A");
  Alcotest.(check bool) "case C row" true (Testlib.contains t "Case C")

let test_table2_contents () =
  let t = Table.to_string (Experiments.table2 ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Testlib.contains t needle))
    [ "580"; "58"; "0.2"; "0.002"; "8 megabits"; "4 megabits"; "B(j)"; "BW(j)" ]

let test_table3_structure () =
  let t = Table.to_string (Experiments.table3 config) in
  (* Case B has no second slow machine; Case C no second fast *)
  Alcotest.(check bool) "has fast machine column" true
    (Testlib.contains t "\"Fast\" Machine 1");
  Alcotest.(check bool) "has dashes for removed machines" true (Testlib.contains t "-")

let test_table4_bounds_sane () =
  List.iter
    (fun case ->
      for etc_index = 0 to config.Config.n_etcs - 1 do
        let b = Evaluation.upper_bound_for config ~case ~etc_index in
        if b < 0 || b > config.Config.spec.Agrid_workload.Spec.n_tasks then
          Alcotest.failf "bound %d out of range" b
      done)
    Agrid_platform.Grid.all_cases

let test_table4_case_c_below_a () =
  (* the paper's Table 4: Case C is strictly more constrained than Case A *)
  for etc_index = 0 to config.Config.n_etcs - 1 do
    let a = Evaluation.upper_bound_for config ~case:Agrid_platform.Grid.A ~etc_index in
    let c = Evaluation.upper_bound_for config ~case:Agrid_platform.Grid.C ~etc_index in
    Alcotest.(check bool) "C <= A" true (c <= a)
  done

let test_figure2_series () =
  let s = Experiments.figure2 ~values:[ 10; 100 ] config in
  let str = Series.to_string s in
  Alcotest.(check bool) "has T100 series" true (Testlib.contains str "T100 (DAG 0)");
  Alcotest.(check bool) "has exec time series" true (Testlib.contains str "exec time")

let test_evaluation_covers_all_combinations () =
  let ev = Lazy.force evaluation in
  let expected =
    List.length Agrid_platform.Grid.all_cases
    * List.length Evaluation.all_heuristics
    * List.length (Config.scenarios config)
  in
  Alcotest.(check int) "tuned entries" expected (List.length ev.Evaluation.tuned)

let test_evaluation_t100_below_ub () =
  let ev = Lazy.force evaluation in
  List.iter
    (fun (r : Evaluation.tuned) ->
      match r.Evaluation.best with
      | None -> ()
      | Some b ->
          if b.Agrid_tuner.Weight_search.t100 > r.Evaluation.upper_bound then
            Alcotest.failf "T100 %d exceeds UB %d" b.Agrid_tuner.Weight_search.t100
              r.Evaluation.upper_bound)
    ev.Evaluation.tuned

let test_evaluation_aggregate_consistent () =
  let ev = Lazy.force evaluation in
  let a = Evaluation.aggregate ev ~case:Agrid_platform.Grid.A ~heuristic:Evaluation.Slrh1 in
  Alcotest.(check int) "scenario count" (List.length (Config.scenarios config))
    a.Evaluation.n_scenarios;
  if a.Evaluation.n_failed < a.Evaluation.n_scenarios then begin
    Alcotest.(check bool) "ratio in (0,1]" true
      (a.Evaluation.mean_t100_over_ub > 0. && a.Evaluation.mean_t100_over_ub <= 1.)
  end

let test_weight_stats_within_simplex () =
  let ev = Lazy.force evaluation in
  List.iter
    (fun heuristic ->
      List.iter
        (fun case ->
          match Evaluation.weight_stats ev ~case ~heuristic with
          | None -> ()
          | Some s ->
              Alcotest.(check bool) "alpha range ordered" true
                (s.Evaluation.alpha_min <= s.Evaluation.alpha_mean
                && s.Evaluation.alpha_mean <= s.Evaluation.alpha_max);
              Alcotest.(check bool) "beta in [0,1]" true
                (s.Evaluation.beta_min >= 0. && s.Evaluation.beta_max <= 1.))
        Agrid_platform.Grid.all_cases)
    Evaluation.all_heuristics

let test_figures_render () =
  let ev = Lazy.force evaluation in
  List.iter
    (fun s ->
      let str = Series.to_string s in
      Alcotest.(check bool) "mentions every case" true
        (Testlib.contains str "Case A" && Testlib.contains str "Case C"))
    [
      Experiments.figure4 ev;
      Experiments.figure5 ev;
      Experiments.figure6 ev;
      Experiments.figure7 ev;
    ];
  let f3 = Table.to_string (Experiments.figure3 ev) in
  Alcotest.(check bool) "figure 3 lists heuristics" true
    (Testlib.contains f3 "SLRH-1" && Testlib.contains f3 "Max-Max")

let test_extension_loss_sweep () =
  let s = Experiments.extension_loss_sweep ~fractions:[ 0.0; 0.5 ] config in
  let str = Series.to_string s in
  Alcotest.(check bool) "slow series" true (Testlib.contains str "lose slow machine 3");
  Alcotest.(check bool) "fast series" true (Testlib.contains str "lose fast machine 1")

(* ---- report primitives ---- *)

let test_table_renders_aligned () =
  let t = Table.make ~title:"t" ~columns:[ "a"; "long column" ] ~rows:[ [ "1"; "2" ] ] in
  let s = Table.to_string t in
  Alcotest.(check bool) "has rule" true (Testlib.contains s "+---");
  Alcotest.(check bool) "pads cells" true (Testlib.contains s "| 1 ")

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.make: row width does not match column count")
    (fun () -> ignore (Table.make ~title:"t" ~columns:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_series_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Series.make: series s length mismatch")
    (fun () ->
      ignore (Series.make ~title:"t" ~x_label:"x" ~xs:[ "1"; "2" ] ~series:[ ("s", [ Some 1. ]) ]))

let test_series_bars () =
  let s =
    Series.make ~title:"bars" ~x_label:"x" ~xs:[ "p" ]
      ~series:[ ("a", [ Some 2. ]); ("b", [ None ]) ]
  in
  let str = Fmt.str "%a" (Series.pp_bars ~width:10) s in
  Alcotest.(check bool) "bar drawn" true (Testlib.contains str "#");
  Alcotest.(check bool) "missing as dash" true (Testlib.contains str "-")

let suites =
  [
    ( "exper",
      [
        Alcotest.test_case "config scenarios" `Quick test_config_scenarios;
        Alcotest.test_case "table 1 contents" `Quick test_table1_contents;
        Alcotest.test_case "table 2 contents" `Quick test_table2_contents;
        Alcotest.test_case "table 3 structure" `Quick test_table3_structure;
        Alcotest.test_case "table 4 bounds sane" `Quick test_table4_bounds_sane;
        Alcotest.test_case "table 4: C <= A" `Quick test_table4_case_c_below_a;
        Alcotest.test_case "figure 2 series" `Quick test_figure2_series;
        Alcotest.test_case "evaluation coverage" `Slow test_evaluation_covers_all_combinations;
        Alcotest.test_case "T100 <= UB everywhere" `Slow test_evaluation_t100_below_ub;
        Alcotest.test_case "aggregate consistency" `Slow test_evaluation_aggregate_consistent;
        Alcotest.test_case "weight stats simplex" `Slow test_weight_stats_within_simplex;
        Alcotest.test_case "figures render" `Slow test_figures_render;
        Alcotest.test_case "extension loss sweep" `Quick test_extension_loss_sweep;
        Alcotest.test_case "table renderer" `Quick test_table_renders_aligned;
        Alcotest.test_case "table ragged rows" `Quick test_table_rejects_ragged_rows;
        Alcotest.test_case "series mismatch" `Quick test_series_length_mismatch;
        Alcotest.test_case "series bars" `Quick test_series_bars;
      ] );
  ]
