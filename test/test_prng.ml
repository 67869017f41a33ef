open Agrid_prng

let test_determinism () =
  let a = Splitmix64.of_int 123 and b = Splitmix64.of_int 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Splitmix64.next_bits53 a)
      (Splitmix64.next_bits53 b)
  done

let test_seed_sensitivity () =
  let a = Splitmix64.of_int 1 and b = Splitmix64.of_int 2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Splitmix64.next_bits53 a <> Splitmix64.next_bits53 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_copy_independent () =
  let a = Splitmix64.of_int 5 in
  let _ = Splitmix64.next_bits53 a in
  let b = Splitmix64.copy a in
  let va = Splitmix64.next_bits53 a in
  let vb = Splitmix64.next_bits53 b in
  Alcotest.(check int) "copy continues identically" va vb;
  let _ = Splitmix64.next_bits53 a in
  Alcotest.(check bool) "copy does not share state" true
    (Splitmix64.state a <> Splitmix64.state b)

let test_split_decorrelated () =
  let a = Splitmix64.of_int 9 in
  let b = Splitmix64.split a in
  (* the split stream must not reproduce the parent stream *)
  let pa = Array.init 20 (fun _ -> Splitmix64.next_bits53 a) in
  let pb = Array.init 20 (fun _ -> Splitmix64.next_bits53 b) in
  Alcotest.(check bool) "streams differ" true (pa <> pb)

let test_unit_float_range () =
  let r = Splitmix64.of_int 77 in
  for _ = 1 to 10_000 do
    let u = Splitmix64.next_unit_float r in
    if u < 0. || u >= 1. then Alcotest.failf "unit float out of range: %g" u
  done

let test_unit_float_mean () =
  let r = Splitmix64.of_int 4242 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Splitmix64.next_unit_float r
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "uniform mean off: %g" mean

let test_next_int_bounds () =
  let r = Splitmix64.of_int 3 in
  List.iter
    (fun bound ->
      for _ = 1 to 1000 do
        let v = Splitmix64.next_int r bound in
        if v < 0 || v >= bound then
          Alcotest.failf "next_int %d out of range: %d" bound v
      done)
    [ 1; 2; 3; 7; 10; 1024; 1 lsl 30 ]

let test_next_int_rejects_bad_bound () =
  let r = Splitmix64.of_int 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Splitmix64.next_int: bound must be positive")
    (fun () -> ignore (Splitmix64.next_int r 0))

let test_next_int_uniformity () =
  let r = Splitmix64.of_int 99 in
  let bound = 10 in
  let counts = Array.make bound 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Splitmix64.next_int r bound in
    counts.(v) <- counts.(v) + 1
  done;
  (* each bucket ~ 10000; allow 5 sigma ~ 474 *)
  Array.iteri
    (fun i c ->
      if abs (c - (n / bound)) > 500 then
        Alcotest.failf "bucket %d count %d too far from %d" i c (n / bound))
    counts

let moments name ~expected_mean ~expected_var ~tol_mean ~tol_var sample =
  let n = 50_000 in
  let xs = Array.init n (fun _ -> sample ()) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int (n - 1)
  in
  if Float.abs (mean -. expected_mean) > tol_mean then
    Alcotest.failf "%s mean: expected %g, got %g" name expected_mean mean;
  if Float.abs (var -. expected_var) > tol_var then
    Alcotest.failf "%s variance: expected %g, got %g" name expected_var var

let test_uniform_moments () =
  let r = Splitmix64.of_int 1001 in
  moments "uniform(2,6)" ~expected_mean:4. ~expected_var:(16. /. 12.)
    ~tol_mean:0.05 ~tol_var:0.05 (fun () -> Dist.uniform r ~lo:2. ~hi:6.)

let test_normal_moments () =
  let r = Splitmix64.of_int 1002 in
  moments "normal(3, 2)" ~expected_mean:3. ~expected_var:4. ~tol_mean:0.05
    ~tol_var:0.15 (fun () -> Dist.normal r ~mean:3. ~stddev:2.)

let test_exponential_moments () =
  let r = Splitmix64.of_int 1003 in
  moments "exp(0.5)" ~expected_mean:2. ~expected_var:4. ~tol_mean:0.05 ~tol_var:0.25
    (fun () -> Dist.exponential r ~rate:0.5)

let test_gamma_moments_shape_ge_1 () =
  let r = Splitmix64.of_int 1004 in
  (* shape 4, scale 0.5: mean 2, var 1 *)
  moments "gamma(4, 0.5)" ~expected_mean:2. ~expected_var:1. ~tol_mean:0.03
    ~tol_var:0.08 (fun () -> Dist.gamma r ~shape:4. ~scale:0.5)

let test_gamma_moments_shape_lt_1 () =
  let r = Splitmix64.of_int 1005 in
  (* shape 0.5, scale 2: mean 1, var 2 *)
  moments "gamma(0.5, 2)" ~expected_mean:1. ~expected_var:2. ~tol_mean:0.04
    ~tol_var:0.3 (fun () -> Dist.gamma r ~shape:0.5 ~scale:2.)

let test_gamma_mean_cv () =
  let r = Splitmix64.of_int 1006 in
  (* mean 131, cv 0.4: var = (131*0.4)^2 *)
  moments "gamma_mean_cv(131, 0.4)" ~expected_mean:131.
    ~expected_var:(131. *. 0.4 *. (131. *. 0.4))
    ~tol_mean:1.5 ~tol_var:150.
    (fun () -> Dist.gamma_mean_cv r ~mean:131. ~cv:0.4)

let test_gamma_positive () =
  let r = Splitmix64.of_int 1007 in
  for _ = 1 to 10_000 do
    if Dist.gamma r ~shape:0.3 ~scale:1. <= 0. then
      Alcotest.fail "gamma produced nonpositive value"
  done

let test_gamma_rejects_bad_params () =
  let r = Splitmix64.of_int 1 in
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Dist.gamma: shape and scale must be positive") (fun () ->
      ignore (Dist.gamma r ~shape:0. ~scale:1.))

let test_bernoulli_frequency () =
  let r = Splitmix64.of_int 1008 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Dist.bernoulli r ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  if Float.abs (f -. 0.3) > 0.01 then Alcotest.failf "bernoulli frequency %g" f

let suites =
  [
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "copy independence" `Quick test_copy_independent;
        Alcotest.test_case "split decorrelated" `Quick test_split_decorrelated;
        Alcotest.test_case "unit float range" `Quick test_unit_float_range;
        Alcotest.test_case "unit float mean" `Quick test_unit_float_mean;
        Alcotest.test_case "next_int bounds" `Quick test_next_int_bounds;
        Alcotest.test_case "next_int bad bound" `Quick test_next_int_rejects_bad_bound;
        Alcotest.test_case "next_int uniformity" `Quick test_next_int_uniformity;
        Alcotest.test_case "uniform moments" `Quick test_uniform_moments;
        Alcotest.test_case "normal moments" `Quick test_normal_moments;
        Alcotest.test_case "exponential moments" `Quick test_exponential_moments;
        Alcotest.test_case "gamma moments (shape>=1)" `Quick test_gamma_moments_shape_ge_1;
        Alcotest.test_case "gamma moments (shape<1)" `Quick test_gamma_moments_shape_lt_1;
        Alcotest.test_case "gamma mean/cv parameterisation" `Quick test_gamma_mean_cv;
        Alcotest.test_case "gamma positivity" `Quick test_gamma_positive;
        Alcotest.test_case "gamma bad params" `Quick test_gamma_rejects_bad_params;
        Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
      ] );
  ]
