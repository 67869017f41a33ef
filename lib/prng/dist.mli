(** Random variate sampling on top of {!Splitmix64}.

    Includes the Gamma sampler (Marsaglia-Tsang) that underlies the
    [AlS00]-style ETC matrix generation used throughout the paper. *)

type rng = Splitmix64.t

val uniform : rng -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)]. @raise Invalid_argument if [hi < lo]. *)

val normal : rng -> mean:float -> stddev:float -> float

val exponential : rng -> rate:float -> float

val gamma : rng -> shape:float -> scale:float -> float
(** Gamma with density x^(shape-1) e^(-x/scale); mean [shape *. scale]. *)

val gamma_mean_cv : rng -> mean:float -> cv:float -> float
(** Gamma parameterised by mean and coefficient of variation (the [AlS00]
    "CVB" parameterisation): shape [1/cv^2], scale [mean*cv^2]. *)

val bernoulli : rng -> p:float -> bool

val shuffle_in_place : rng -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val sample_distinct : rng -> n:int -> bound:int -> int array
(** [n] distinct integers uniformly from [\[0, bound)], unordered. *)
