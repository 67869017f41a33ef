(** Exact decimal-to-double conversion for the pinned-scenario decoder:
    an Eisel-Lemire kernel over a 128-bit powers-of-ten table, which
    decides the common [%.17g] spellings without allocating and leaves
    every other token to [float_of_string]. *)

val scan : string -> pos:int -> limit:int -> float array -> int -> int
(** [scan s ~pos ~limit dst i] reads the number that starts at [pos] and
    stops before [limit], in the kernel's grammar
    [-?digits[.digits][(e|E)[+-]digits]] (at least one mantissa digit, at
    most 18 significant ones; an [e] must be followed by exponent digits).
    When the kernel can round it unambiguously to a normal double (or
    zero) with a decimal exponent in [[-342, 308]], it stores the value in
    [dst.(i)], bit for bit what [float_of_string] gives for that text, and
    returns the index just past it. Otherwise it returns [-1] and leaves
    [dst] alone: the caller falls back to [float_of_string]. The caller
    decides whether the number is the whole field. *)
