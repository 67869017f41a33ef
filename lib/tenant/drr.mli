(** Deficit round robin (Shreedhar & Varghese) over a fixed set of
    queues, one served item per call: queue [i] accrues [quantum * w_i]
    of credit each round it is backlogged, spends credit as it is
    served, and keeps (bounded) residual credit while backlogged.

    With weights >= 1 and per-item costs <= quantum, any two queues
    continuously backlogged over a whole number of rounds have weighted
    shares [served_i / w_i] within one quantum of each other at round
    boundaries — the fairness bound the QCheck suite pins. *)

type t

val create : quantum:float -> weights:float array -> t
(** @raise Invalid_argument on an empty queue set, a nonpositive or
    non-finite quantum, or any weight below 1. *)

val n : t -> int
val quantum : t -> float
val weight : t -> int -> float

val select : t -> backlogged:(int -> bool) -> cost:float -> int option
(** Pick the queue whose head item (of [cost]) is served next and charge
    the cost against its deficit. [None] iff no queue is backlogged; the
    internal cursor is unmoved in that case. A queue found empty on its
    turn forfeits its residual deficit (the classic reset — idle queues
    cannot bank credit).
    @raise Invalid_argument if [cost] is nonpositive, non-finite or
    exceeds the quantum. *)

val served : t -> int -> float
(** Total cost served to queue [i] so far. *)

val rounds : t -> int
(** Completed cursor passes over the whole queue set. *)

val boundary_served : t -> int -> float
(** [served i] as it stood at the last round boundary (the cursor wrap).
    Round-boundary fairness must be measured here: one {!select} call
    can cross the boundary and serve into the new round before it
    returns, so sampling {!served} after the call overshoots. *)

val weighted_gap : t -> over:(int -> bool) -> float
(** Max pairwise gap in [boundary_served i /. weight i] across queues
    selected by [over]; [0.] when fewer than two qualify. *)
