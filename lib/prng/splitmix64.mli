(** Deterministic, splittable 64-bit pseudo-random number generator
    (splitmix64, Steele-Lea-Flood 2014).

    Every stochastic artefact in this repository (ETC matrices, DAGs, data
    sizes) is derived from a single integer seed through this module, so
    experiments are exactly reproducible. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a generator from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from [t]'s; use one split stream per independent artefact. *)

val next_bits53 : t -> int
(** The top 53 bits of the next raw output, as a non-negative [int].
    [next_unit_float t] is [float_of_int (next_bits53 t) *. 0x1p-53];
    callers that scale the draw in place use this to keep the float
    unboxed. *)

val next_unit_float : t -> float
(** Uniform float in [\[0,1)] with 53 random mantissa bits. *)

val next_int : t -> int -> int
(** [next_int t bound] is uniform in [\[0, bound)]; rejection-sampled, no
    modulo bias. @raise Invalid_argument if [bound <= 0]. *)

val next_bool : t -> bool
(** Fair coin. *)

val state : t -> int64
(** Current internal state (for debugging / golden tests). *)

val pp : Format.formatter -> t -> unit
