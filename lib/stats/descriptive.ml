(* Descriptive statistics over float arrays. All functions raise
   [Invalid_argument] on empty input rather than returning NaN, so that an
   empty experiment result set fails loudly. *)

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  check_nonempty "Descriptive.mean" xs;
  let sum = Array.fold_left ( +. ) 0. xs in
  sum /. float_of_int (Array.length xs)

(* Two-pass variance: numerically stable enough for experiment aggregation
   and simpler to audit than Welford. Sample variance (n-1 denominator);
   variance of a singleton is 0. *)
let variance xs =
  check_nonempty "Descriptive.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  check_nonempty "Descriptive.min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  check_nonempty "Descriptive.max" xs;
  Array.fold_left Float.max xs.(0) xs

let sum xs = Array.fold_left ( +. ) 0. xs

(* Linear-interpolation quantile (type 7, the numpy/R default).
   [q] must lie in [0,1]. *)
let quantile xs q =
  check_nonempty "Descriptive.quantile" xs;
  if q < 0. || q > 1. then invalid_arg "Descriptive.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = quantile xs 0.5

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  check_nonempty "Descriptive.summarize" xs;
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    max = max xs;
    median = median xs;
  }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g" s.n s.mean
    s.stddev s.min s.median s.max
