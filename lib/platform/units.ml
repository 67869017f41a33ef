(* Time in the simulator is measured in integer clock cycles; the paper's
   clock cycle represents 0.1 s. Keeping integer cycles everywhere in the
   schedule engine removes float-comparison hazards from interval logic;
   energies remain floats. *)

let cycles_per_second = 10

let[@inline] seconds_of c = float_of_int c /. float_of_int cycles_per_second

let seconds_of_cycles c = seconds_of c

(* Writes the float in place, for callers in other modules that must not
   receive it boxed. *)
let seconds_of_cycles_into a i c = a.(i) <- seconds_of c

(* Round up: a duration of any positive length occupies at least 1 cycle.
   A cycle count of 2^62 or more does not fit an int, where [int_of_float]
   would wrap: it is refused before the conversion, so every count that
   fits converts exactly as before. *)
let[@inline] cycles_of s =
  if s < 0. then invalid_arg "Units.cycles_of_seconds: negative duration";
  if s = 0. then 0
  else
    let x = Float.ceil (s *. float_of_int cycles_per_second) in
    if not (x < 0x1p62) then invalid_arg "Units.cycles_of_seconds: duration too long";
    (* an int-typed max: [Stdlib.max] is polymorphic, a C call per use *)
    let c = int_of_float x in
    if c < 1 then 1 else c

let cycles_of_seconds s = cycles_of s

(* Reads the float in place: a float argument to a function in another
   module is boxed, an array slot is not. *)
let cycles_of_seconds_at a i = cycles_of a.(i)

let pp_cycles ppf c = Fmt.pf ppf "%d cy (%.1f s)" c (seconds_of_cycles c)
