(* Hand-rolled sampling for the distributions the workload generators need.
   The Gamma sampler is the one nontrivial algorithm here: Marsaglia & Tsang
   (2000) "A simple method for generating gamma variables", which needs only
   uniform and normal draws and is exact (rejection-based). *)

type rng = Splitmix64.t

(* The unit draws, kept in this module so the float never crosses a
   module boundary (where it would be boxed): [unit] is
   [Splitmix64.next_unit_float], [nonzero_unit] redraws an exact 0. *)
let[@inline] unit rng = float_of_int (Splitmix64.next_bits53 rng) *. 0x1p-53

let[@inline] nonzero_unit rng =
  let u = ref (unit rng) in
  while not (!u > 0.) do
    u := unit rng
  done;
  !u

let uniform rng ~lo ~hi =
  if not (hi >= lo) then invalid_arg "Dist.uniform: hi < lo";
  lo +. (hi -. lo) *. unit rng

(* Box-Muller (polar form avoided on purpose: the basic form consumes a fixed
   number of uniforms, which keeps streams aligned across runs). *)
let[@inline] box_muller rng =
  let u1 = nonzero_unit rng in
  let u2 = unit rng in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let normal rng ~mean ~stddev =
  if stddev < 0. then invalid_arg "Dist.normal: negative stddev";
  mean +. (stddev *. box_muller rng)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  -.log (nonzero_unit rng) /. rate

(* Marsaglia-Tsang for shape >= 1, as a rejection loop with no closure:
   a draw is (normal, uniform) pairs until one is accepted. *)
let[@inline] marsaglia_tsang rng shape =
  let d = shape -. (1. /. 3.) in
  let c = 1. /. sqrt (9. *. d) in
  let accepted = ref false and out = ref 0. in
  while not !accepted do
    let x = box_muller rng in
    let v = 1. +. (c *. x) in
    if v > 0. then begin
      let v = v *. v *. v in
      let u = unit rng in
      let x2 = x *. x in
      if
        u < 1. -. (0.0331 *. x2 *. x2)
        || (u > 0. && log u < (0.5 *. x2) +. (d *. (1. -. v +. log v)))
      then begin
        accepted := true;
        out := d *. v
      end
    end
  done;
  !out

(* The shape < 1 case uses the standard boost: if X ~ Gamma(shape+1) and
   U ~ Uniform(0,1) then X * U^(1/shape) ~ Gamma(shape). Scale is theta
   (mean = shape * theta). *)
let[@inline] gamma_unchecked rng ~shape ~scale =
  if shape >= 1. then scale *. marsaglia_tsang rng shape
  else
    let x = marsaglia_tsang rng (shape +. 1.) in
    scale *. (x *. (nonzero_unit rng ** (1. /. shape)))

let gamma rng ~shape ~scale =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Dist.gamma: shape and scale must be positive";
  gamma_unchecked rng ~shape ~scale

(* Gamma parameterised by mean and coefficient of variation, the form used by
   the [AlS00] ETC-generation method: shape = 1/cv^2, scale = mean * cv^2. *)
let gamma_mean_cv rng ~mean ~cv =
  if mean <= 0. then invalid_arg "Dist.gamma_mean_cv: mean must be positive";
  if cv <= 0. then invalid_arg "Dist.gamma_mean_cv: cv must be positive";
  let shape = 1. /. (cv *. cv) in
  let scale = mean *. cv *. cv in
  if shape <= 0. || scale <= 0. then
    invalid_arg "Dist.gamma: shape and scale must be positive";
  gamma_unchecked rng ~shape ~scale

let bernoulli rng ~p =
  if p < 0. || p > 1. then invalid_arg "Dist.bernoulli: p outside [0,1]";
  unit rng < p

(* Fisher-Yates shuffle, in place. *)
let shuffle_in_place rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Splitmix64.next_int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* [sample_distinct rng ~n ~bound] draws [n] distinct ints from [0, bound).
   Uses rejection for sparse draws and a partial shuffle otherwise. *)
let sample_distinct rng ~n ~bound =
  if n < 0 || n > bound then invalid_arg "Dist.sample_distinct";
  if n = 0 then [||]
  else if n * 3 < bound then begin
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n 0 in
    let filled = ref 0 in
    while !filled < n do
      let v = Splitmix64.next_int rng bound in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
  else begin
    let all = Array.init bound Fun.id in
    (* partial Fisher-Yates: the first n slots end up a uniform sample *)
    for i = 0 to n - 1 do
      let j = i + Splitmix64.next_int rng (bound - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Array.sub all 0 n
  end
