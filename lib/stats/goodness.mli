(** Goodness-of-fit tests (test-grade accuracy) used to validate the
    hand-rolled samplers: one-sample Kolmogorov-Smirnov and chi-square
    uniformity. *)

val ks_statistic : cdf:(float -> float) -> float array -> float
(** Empirical [D_n = sup |F_n - F|]. @raise Invalid_argument on empty. *)

val ks_test : cdf:(float -> float) -> float array -> float * float
(** [(statistic, p_value)]. *)

val chi_square_uniform_test : int array -> float * float
(** [(statistic, p_value)] for equal expected bin counts. *)

val uniform_cdf : lo:float -> hi:float -> float -> float
val exponential_cdf : rate:float -> float -> float
val normal_cdf : mean:float -> stddev:float -> float -> float
