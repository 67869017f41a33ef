(** Fixed-bucket histogram for telemetry aggregation.

    Bucket boundaries are arbitrary strictly-increasing upper bounds fixed
    at construction; two histograms with identical bounds merge
    bucket-wise (associatively and commutatively), which is what lets
    per-domain telemetry aggregate after a parallel region without locks
    on the hot path. Bucket 0 doubles as the underflow bucket
    [(-inf, bounds.(0))]; an implicit extra bucket catches overflow
    [[bounds.(k-1), +inf)]. NaN observations are quarantined in a separate
    counter and never reach the buckets, the count or the sum. *)

type t

val make : bounds:float array -> t
(** @raise Invalid_argument on empty, non-increasing or NaN bounds. *)

val linear_bounds : lo:float -> hi:float -> n:int -> float array
(** [n] equal-width bucket upper bounds over [(lo, hi]]. *)

val exponential_bounds : lo:float -> factor:float -> n:int -> float array
(** [lo, lo*factor, lo*factor^2, ...] — log-spaced bounds for durations. *)

val observe : t -> float -> unit

val count : t -> int
(** Observations recorded, NaN excluded. *)

val nan_count : t -> int
val sum : t -> float

val mean : t -> float
(** NaN when empty. *)

val max_value : t -> float
(** Largest (non-NaN) observation recorded. NaN when empty. *)

val quantile : t -> float -> float
(** Approximate quantile: linear interpolation inside the covering bucket;
    clamped to the last bound for overflow observations. The underflow
    bucket interpolates from 0 when the first bound is positive (the
    common duration/size case) and from one bucket-width below the first
    bound otherwise. NaN when empty.
    @raise Invalid_argument when [q] is outside [0, 1]. *)

val bounds : t -> float array
val counts : t -> int array
(** Per-bucket counts; one longer than {!bounds} (the overflow bucket). *)

val merge_into : into:t -> t -> unit
(** Bucket-wise addition. @raise Invalid_argument when bounds differ. *)

val copy : t -> t
val pp : Format.formatter -> t -> unit
