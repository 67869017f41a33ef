(** Projected subgradient ascent on the Lagrangian dual: nonnegative
    per-constraint multipliers updated with the diminishing step schedule
    [c/sqrt(round)] (SNIPPETS.md Snippet 2, mocasin's LRSolver). The
    online scheduler ({!Agrid_core.Adapt}) and the offline tuner
    ({!Agrid_tuner.Adaptive}) both step through this module, so the two
    adaptation layers share one numerical core. *)

val step_size : c:float -> round:int -> float
(** [c /. sqrt (float_of_int round)], [round] 1-based. The exact float
    expression — callers replacing a private step computation with this
    one stay bit-identical. *)

val clamp_simplex : float * float -> float * float
(** Project [(alpha, beta)] onto [{a, b >= 0; a + b <= 1}]: clamp alpha
    into [0, 1] first, then beta into [0, 1 - alpha]. *)

type t
(** Mutable multiplier state: a vector of nonnegative multipliers plus
    the completed round count. *)

val create : ?c:float -> float array -> t
(** Fresh state from initial multipliers (copied). [c] defaults to 0.5.
    @raise Invalid_argument if [c] is nonpositive or non-finite, the
    vector is empty, or any multiplier is negative, nan or infinite. *)

val round : t -> int
(** Completed {!step} rounds (0 for a fresh state). *)

val get : t -> int -> float
val multipliers : t -> float array
(** A copy of the current vector. *)

val step : t -> float array -> float
(** One ascent round against a subgradient vector (positive component =
    constraint violated): advance the round counter, move every
    multiplier by [step_size ~c ~round] times its component, project back
    to nonnegative. Returns the step size used.
    @raise Invalid_argument on arity mismatch or a non-finite component. *)

val pp : Format.formatter -> t -> unit
