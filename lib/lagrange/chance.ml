(* Chance-constrained margins for uncertain demand (SNIPPETS.md Snippets
   1/3, receding_resource_allocation): a resource estimate with relative
   uncertainty sigma is inflated to (1 + z * sigma) times its nominal
   value, where z = Phi^-1(p) is the standard normal quantile of the
   configured service probability p. The feasibility layer applies the
   factor to its energy bounds, so a pool admission holds with
   probability ~p under Gaussian estimation error instead of only at the
   point estimate. *)

(* Acklam's rational approximation to the inverse standard normal CDF:
   two tail branches plus a central branch, relative error < 1.15e-9 over
   all of (0, 1) — far below the 9 significant digits anything here
   serialises. The test suite pins it, through [inflation], against the
   erfc-based normal CDF of its goodness-of-fit helpers. *)
let a =
  [|
    -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
    1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00;
  |]

let b =
  [|
    -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
    6.680131188771972e+01; -1.328068155288572e+01;
  |]

let c =
  [|
    -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
    -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00;
  |]

let d =
  [|
    7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
    3.754408661907416e+00;
  |]

let p_low = 0.02425

let tail q =
  ((((((c.(0) *. q) +. c.(1)) *. q) +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
  +. c.(5)

let tail_den q =
  ((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.

let normal_quantile p =
  if (not (Float.is_finite p)) || p <= 0. || p >= 1. then
    invalid_arg "Chance.normal_quantile: probability must lie strictly inside (0, 1)";
  if p < p_low then
    let q = sqrt (-2. *. log p) in
    tail q /. tail_den q
  else if p > 1. -. p_low then
    let q = sqrt (-2. *. log (1. -. p)) in
    -.(tail q /. tail_den q)
  else
    let q = p -. 0.5 in
    let r = q *. q in
    ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
    +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r
       +. 1.)

(* The multiplicative demand margin. p = 0.5 gives z = 0 exactly (the
   central branch is odd in q = p - 1/2), so the factor degenerates to 1
   and chance-mode feasibility coincides bit-for-bit with the nominal
   bound; p < 0.5 deliberately deflates (an optimistic service level).
   Clamped at 0 so an extreme (p, sigma) pair can never demand negative
   energy. *)
let inflation ~p ~sigma =
  if (not (Float.is_finite sigma)) || sigma < 0. then
    invalid_arg "Chance.inflation: sigma must be finite and nonnegative";
  Float.max 0. (1. +. (normal_quantile p *. sigma))
