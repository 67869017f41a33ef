(* Order statistics over float samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it; nan on no samples. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

(* The middle value, averaging the two middle ones on an even count. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method (what Python's
   statistics.quantiles(values, n=4) computes). Needs two samples. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then (nan, nan)
  else
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = m - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int n

let sum a = Array.fold_left ( +. ) 0. a
