(* Splitmix64: the 64-bit mixing generator of Steele, Lea & Flood (2014).
   Chosen as the base generator because it is trivially seedable, splittable
   (each split stream is statistically independent for our purposes) and
   exactly reproducible across platforms — every experiment in this
   repository is keyed by a single integer seed.

   The state lives unboxed in an 8-byte buffer read and written with the
   compiler's raw 64-bit load/store primitives, so a draw that ends in an
   [int] (or a float consumed in place) allocates nothing; a mutable
   [int64] record field would box a fresh state on every draw. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

let copy = Bytes.copy

let state t = get64 t 0

(* The 64-bit finalizer from MurmurHash3, with splitmix64's constants. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_mixed t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

(* A derived generator whose starting point is decorrelated from [t] by an
   extra mixing round; used to give every (etc, dag, machine, ...) index its
   own independent stream. *)
let split t = create (mix (Int64.logxor (next_mixed t) 0x2545F4914F6CDD1DL))

let next_bits53 t = Int64.to_int (Int64.shift_right_logical (next_mixed t) 11)

(* 53-bit mantissa float in [0,1). *)
let next_unit_float t = float_of_int (next_bits53 t) *. 0x1p-53

(* Uniform int in [0, bound) by rejection over 62 usable bits, which avoids
   modulo bias for every bound representable in an OCaml int. *)
let mask62 = 0x3FFF_FFFF_FFFF_FFFF

let[@inline] next_bits62 t =
  Int64.to_int (Int64.shift_right_logical (next_mixed t) 2) land mask62

let next_int t bound =
  if bound <= 0 then invalid_arg "Splitmix64.next_int: bound must be positive";
  let limit = mask62 - (mask62 mod bound) in
  let v = ref (next_bits62 t) in
  while !v >= limit do
    v := next_bits62 t
  done;
  !v mod bound

let next_bool t = Int64.logand (next_mixed t) 1L = 1L

let pp ppf t = Fmt.pf ppf "splitmix64<%Lx>" (state t)
