open Agrid_platform
open Agrid_etc

let case_a_klasses = [| Machine.Fast; Machine.Fast; Machine.Slow; Machine.Slow |]

let generate ?(seed = 0) ?(n_tasks = 256) () =
  Etc.generate (Testlib.rng ~seed ()) (Etc.default_params ~n_tasks) ~klasses:case_a_klasses

let test_dimensions () =
  let e = generate () in
  Alcotest.(check int) "tasks" 256 (Etc.n_tasks e);
  Alcotest.(check int) "machines" 4 (Etc.n_machines e)

let test_positive_entries () =
  let e = generate () in
  for i = 0 to Etc.n_tasks e - 1 do
    for j = 0 to Etc.n_machines e - 1 do
      if Etc.seconds e ~task:i ~machine:j <= 0. then
        Alcotest.failf "nonpositive ETC(%d,%d)" i j
    done
  done

let test_deterministic () =
  let a = generate ~seed:5 () and b = generate ~seed:5 () in
  for i = 0 to 255 do
    for j = 0 to 3 do
      Testlib.close "same entry"
        (Etc.seconds a ~task:i ~machine:j)
        (Etc.seconds b ~task:i ~machine:j)
    done
  done

let test_slow_slower_on_average () =
  let e = generate ~n_tasks:512 () in
  let mean_machine j =
    let acc = ref 0. in
    for i = 0 to Etc.n_tasks e - 1 do
      acc := !acc +. Etc.seconds e ~task:i ~machine:j
    done;
    !acc /. float_of_int (Etc.n_tasks e)
  in
  let fast = mean_machine 0 and slow = mean_machine 2 in
  let ratio = slow /. fast in
  if ratio < 6. || ratio > 14. then
    Alcotest.failf "slow/fast mean ratio %.2f outside ~10x band" ratio

let test_pooled_mean_calibration () =
  (* paper: mean estimated execution time of a single subtask = 131 s,
     pooled over the Case A machine mix *)
  let e = generate ~n_tasks:1024 ~seed:1 () in
  let m = Etc.mean e in
  if m < 100. || m > 165. then Alcotest.failf "pooled mean %.1f not near 131 s" m

let test_restrict () =
  let e = generate () in
  let r = Etc.for_case e Grid.C in
  Alcotest.(check int) "restricted machines" 3 (Etc.n_machines r);
  Testlib.close "column 0 preserved"
    (Etc.seconds e ~task:3 ~machine:0)
    (Etc.seconds r ~task:3 ~machine:0);
  Testlib.close "column 2 -> 1"
    (Etc.seconds e ~task:3 ~machine:2)
    (Etc.seconds r ~task:3 ~machine:1)

let test_restrict_bad_column () =
  let e = Etc.of_matrix ~klasses:[| Machine.Fast; Machine.Slow |] [| [| 1.; 2. |] |] in
  Alcotest.check_raises "bad column" (Invalid_argument "Etc.restrict: bad column")
    (fun () -> ignore (Etc.for_case e Grid.C))

let test_case_columns () =
  Alcotest.(check (array int)) "A" [| 0; 1; 2; 3 |] (Etc.case_columns Grid.A);
  Alcotest.(check (array int)) "B" [| 0; 1; 2 |] (Etc.case_columns Grid.B);
  Alcotest.(check (array int)) "C" [| 0; 2; 3 |] (Etc.case_columns Grid.C)

let test_for_case_klasses () =
  let e = generate () in
  List.iter
    (fun case ->
      let r = Etc.for_case e case in
      let g = Grid.of_case case in
      Alcotest.(check int)
        (Grid.case_name case ^ " machine count")
        (Grid.n_machines g) (Etc.n_machines r);
      Array.iteri
        (fun j k ->
          Alcotest.(check bool) "klass matches grid" true
            (Machine.equal_klass k (Grid.machine g j).Machine.klass))
        (Etc.klasses r))
    Grid.all_cases

let test_of_matrix_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Etc.of_matrix: ragged matrix")
    (fun () ->
      ignore (Etc.of_matrix ~klasses:[| Machine.Fast; Machine.Slow |] [| [| 1. |] |]));
  Alcotest.check_raises "nonpositive" (Invalid_argument "Etc.of_matrix: nonpositive entry")
    (fun () -> ignore (Etc.of_matrix ~klasses:[| Machine.Fast |] [| [| 0. |] |]))

let test_params_validation () =
  let p = { (Etc.default_params ~n_tasks:4) with Etc.ratio_lo = 0.5 } in
  Alcotest.check_raises "ratio_lo < 1"
    (Invalid_argument "Etc: need 1 <= ratio_lo <= ratio_hi") (fun () ->
      ignore (Etc.generate (Testlib.rng ()) p ~klasses:case_a_klasses))

(* Table 3 band check: the fast machine's minimum relative speed must drop
   well below 1 and the slow machines' must sit above 1. *)
let test_min_ratio_band () =
  let e = generate ~n_tasks:1024 ~seed:2 () in
  let mr = Agrid_core.Upper_bound.min_ratios e in
  Testlib.close "reference MR" 1. mr.(0);
  if mr.(1) >= 1.0 || mr.(1) < 0.05 then
    Alcotest.failf "fast MR %.3f outside (0.05, 1)" mr.(1);
  if mr.(2) <= 1.0 || mr.(2) > 6. then Alcotest.failf "slow MR %.3f outside (1, 6)" mr.(2);
  if mr.(3) <= 1.0 || mr.(3) > 6. then Alcotest.failf "slow MR %.3f outside (1, 6)" mr.(3)

let suites =
  [
    ( "etc",
      [
        Alcotest.test_case "dimensions" `Quick test_dimensions;
        Alcotest.test_case "positive entries" `Quick test_positive_entries;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "slow ~10x fast" `Quick test_slow_slower_on_average;
        Alcotest.test_case "pooled mean ~131 s" `Quick test_pooled_mean_calibration;
        Alcotest.test_case "restrict" `Quick test_restrict;
        Alcotest.test_case "restrict bad column" `Quick test_restrict_bad_column;
        Alcotest.test_case "case columns" `Quick test_case_columns;
        Alcotest.test_case "for_case klasses" `Quick test_for_case_klasses;
        Alcotest.test_case "of_matrix validation" `Quick test_of_matrix_validation;
        Alcotest.test_case "params validation" `Quick test_params_validation;
        Alcotest.test_case "Table 3 MR band" `Quick test_min_ratio_band;
      ] );
  ]
