(** Descriptive statistics over float arrays (empty input raises
    [Invalid_argument] — experiment aggregation should fail loudly). *)

val mean : float array -> float
val variance : float array -> float
(** Sample variance (n-1 denominator); 0 for a singleton. *)

val stddev : float array -> float
val min : float array -> float
val max : float array -> float
val sum : float array -> float

val quantile : float array -> float -> float
(** Linear-interpolation quantile (numpy/R type 7). *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
val pp_summary : Format.formatter -> summary -> unit
