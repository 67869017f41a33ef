open Agrid_stats

let arr l = Array.of_list l

let test_mean () =
  Testlib.close "mean" 2.5 (Descriptive.mean (arr [ 1.; 2.; 3.; 4. ]));
  Testlib.close "singleton" 7. (Descriptive.mean (arr [ 7. ]))

let test_variance () =
  Testlib.close "variance" (5. /. 3.)
    (Descriptive.variance (arr [ 1.; 2.; 3.; 4. ]));
  Testlib.close "singleton variance" 0. (Descriptive.variance (arr [ 9. ]))

let test_stddev () =
  (* [1;3]: mean 2, sample variance (1+1)/1 = 2 *)
  Testlib.close "stddev" (sqrt 2.) (Descriptive.stddev (arr [ 1.; 3. ]));
  (* [0;4;0;4]: mean 2, sample variance 16/3 *)
  Testlib.close "stddev 4pts" (sqrt (16. /. 3.))
    (Descriptive.stddev (arr [ 0.; 4.; 0.; 4. ]))

let test_extrema () =
  let xs = arr [ 3.; -1.; 4.; 1.5 ] in
  Testlib.close "min" (-1.) (Descriptive.min xs);
  Testlib.close "max" 4. (Descriptive.max xs);
  Testlib.close "sum" 7.5 (Descriptive.sum xs)

let test_quantile () =
  let xs = arr [ 10.; 20.; 30.; 40. ] in
  Testlib.close "q0" 10. (Descriptive.quantile xs 0.);
  Testlib.close "q1" 40. (Descriptive.quantile xs 1.);
  Testlib.close "median even" 25. (Descriptive.median xs);
  Testlib.close "median odd" 20. (Descriptive.median (arr [ 30.; 10.; 20. ]));
  Testlib.close "interpolated" 17.5 (Descriptive.quantile xs 0.25)

let test_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Descriptive.mean: empty input")
    (fun () -> ignore (Descriptive.mean [||]))

let test_quantile_bad_q () =
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Descriptive.quantile: q outside [0,1]") (fun () ->
      ignore (Descriptive.quantile (arr [ 1. ]) 1.5))

let test_summary () =
  let s = Descriptive.summarize (arr [ 1.; 2.; 3. ]) in
  Alcotest.(check int) "n" 3 s.Descriptive.n;
  Testlib.close "summary mean" 2. s.Descriptive.mean;
  Testlib.close "summary median" 2. s.Descriptive.median

(* ---- goodness-of-fit utilities ---- *)

let test_ks_statistic_perfect_fit () =
  (* sample at exact quantiles of U(0,1): D is minimal (1/2n) *)
  let n = 100 in
  let sample = Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n) in
  let d = Goodness.ks_statistic ~cdf:(Goodness.uniform_cdf ~lo:0. ~hi:1.) sample in
  Testlib.close "minimal D" (0.5 /. float_of_int n) d ~eps:1e-9

let test_ks_detects_wrong_distribution () =
  let rng = Agrid_prng.Splitmix64.of_int 9 in
  let sample =
    Array.init 2000 (fun _ -> Agrid_prng.Dist.exponential rng ~rate:1.)
  in
  (* right model: high p; wrong model (uniform): p ~ 0 *)
  let _, p_good = Goodness.ks_test ~cdf:(Goodness.exponential_cdf ~rate:1.) sample in
  let _, p_bad = Goodness.ks_test ~cdf:(Goodness.uniform_cdf ~lo:0. ~hi:8.) sample in
  Alcotest.(check bool) "accepts the true model" true (p_good > 0.01);
  Alcotest.(check bool) "rejects the wrong model" true (p_bad < 1e-6)

let test_ks_normal_sampler () =
  let rng = Agrid_prng.Splitmix64.of_int 10 in
  let sample = Array.init 2000 (fun _ -> Agrid_prng.Dist.normal rng ~mean:3. ~stddev:2.) in
  let _, p = Goodness.ks_test ~cdf:(Goodness.normal_cdf ~mean:3. ~stddev:2.) sample in
  Alcotest.(check bool) "normal sampler passes KS" true (p > 0.01)

let test_chi_square_uniformity () =
  let rng = Agrid_prng.Splitmix64.of_int 11 in
  let counts = Array.make 16 0 in
  for _ = 1 to 16_000 do
    let b = Agrid_prng.Splitmix64.next_int rng 16 in
    counts.(b) <- counts.(b) + 1
  done;
  let _, p = Goodness.chi_square_uniform_test counts in
  Alcotest.(check bool) "uniform bins accepted" true (p > 0.01);
  (* a blatantly skewed histogram must be rejected *)
  let skewed = Array.init 16 (fun i -> if i = 0 then 5000 else 700) in
  let _, p_bad = Goodness.chi_square_uniform_test skewed in
  Alcotest.(check bool) "skewed bins rejected" true (p_bad < 1e-6)

let test_chi_square_validation () =
  Alcotest.check_raises "single bin"
    (Invalid_argument "Goodness.chi_square_uniform_test: need >= 2 bins") (fun () ->
      ignore (Goodness.chi_square_uniform_test [| 3 |]))

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "variance" `Quick test_variance;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "extrema and sum" `Quick test_extrema;
        Alcotest.test_case "quantiles" `Quick test_quantile;
        Alcotest.test_case "empty input raises" `Quick test_empty_raises;
        Alcotest.test_case "quantile bad q" `Quick test_quantile_bad_q;
        Alcotest.test_case "summary" `Quick test_summary;
        Alcotest.test_case "KS perfect fit" `Quick test_ks_statistic_perfect_fit;
        Alcotest.test_case "KS discriminates models" `Quick
          test_ks_detects_wrong_distribution;
        Alcotest.test_case "KS normal sampler" `Quick test_ks_normal_sampler;
        Alcotest.test_case "chi-square uniformity" `Quick test_chi_square_uniformity;
        Alcotest.test_case "chi-square validation" `Quick test_chi_square_validation;
      ] );
  ]
