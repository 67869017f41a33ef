(** Time units: the simulator counts integer clock cycles; one cycle
    represents 0.1 s (paper Section IV). *)

val cycles_per_second : int

val seconds_of_cycles : int -> float

val seconds_of_cycles_into : float array -> int -> int -> unit
(** [seconds_of_cycles_into a i c] stores [seconds_of_cycles c] in
    [a.(i)] without boxing the float. *)

val cycles_of_seconds : float -> int
(** Rounds up; any positive duration occupies at least one cycle.
    @raise Invalid_argument on negative input, and on a duration whose
    cycle count does not fit an int (2{^ 62} cycles or more). *)

val cycles_of_seconds_at : float array -> int -> int
(** [cycles_of_seconds_at a i] is [cycles_of_seconds a.(i)] without boxing
    the float. *)

val pp_cycles : Format.formatter -> int -> unit
