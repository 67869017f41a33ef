(** Machine characterisation per paper Table 2: battery capacity [B(j)],
    compute energy rate [E(j)], transmit energy rate [C(j)], bandwidth
    [BW(j)]. "Fast" is notebook-class, "slow" is PDA-class. *)

type klass = Fast | Slow

type profile = {
  klass : klass;
  battery : float;  (** B(j), energy units *)
  compute_rate : float;  (** E(j), units/s *)
  transmit_rate : float;  (** C(j), units/s *)
  bandwidth : float;  (** BW(j), bits/s *)
}

val fast_profile : profile
(** B = 580, E = 0.1, C = 0.2, BW = 8 Mb/s (Dell Precision M60 class). *)

val slow_profile : profile
(** B = 58, E = 0.001, C = 0.002, BW = 4 Mb/s (Dell Axim X5 class). *)

val scale_battery : float -> profile -> profile
(** Proportional workload scaling (DESIGN.md section 3).
    @raise Invalid_argument on nonpositive factors. *)

val scale_bandwidth : float -> profile -> profile
(** Link-quality churn (churn engine's [Bandwidth_degrade] event).
    @raise Invalid_argument on nonpositive factors. *)

val compute_energy : profile -> seconds:float -> float
val transmit_energy : profile -> seconds:float -> float

val energy_in_place : float array -> int -> float array -> int -> unit
(** [energy_in_place rates j a i] replaces the seconds in [a.(i)] by the
    energy spent over them at rate [rates.(j)] — the expression of
    {!compute_energy} and {!transmit_energy}, with no float boxed. *)

val equal_klass : klass -> klass -> bool
val pp : Format.formatter -> profile -> unit
