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

(* Round up: a duration of any positive length occupies at least 1 cycle. *)
let[@inline] cycles_of s =
  if s < 0. then invalid_arg "Units.cycles_of_seconds: negative duration";
  if s = 0. then 0
  else
    (* an int-typed max: [Stdlib.max] is polymorphic, a C call per use *)
    let c = int_of_float (Float.ceil (s *. float_of_int cycles_per_second)) in
    if c < 1 then 1 else c

let cycles_of_seconds s = cycles_of s

(* Reads the float in place: a float argument to a function in another
   module is boxed, an array slot is not. *)
let cycles_of_seconds_at a i = cycles_of a.(i)

let pp_cycles ppf c = Fmt.pf ppf "%d cy (%.1f s)" c (seconds_of_cycles c)
