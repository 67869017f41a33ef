(** Upper bound on T100 by "equivalent computing cycles" (paper Section VI,
    Tables 3 and 4). Machine 0 is the reference machine. *)

type result = {
  t100_bound : int;
  limiting : [ `Energy | `Cycles | `Complete ];
      (** which resource stopped the greedy, [`Complete] if none did *)
  tecc : float;  (** total equivalent computing cycles (reference seconds) *)
  tse : float;
  cycles_used : float;
  energy_used : float;
}

val min_ratios : Agrid_etc.Etc.t -> float array
(** [MR(j) = min_i ETC(i,j)/ETC(i,0)] for every machine [j] — Table 3's
    statistic. *)

val compute :
  etc:Agrid_etc.Etc.t ->
  grid:Agrid_platform.Grid.t ->
  tau_seconds:float ->
  result
(** [etc] must already be restricted to [grid]'s machines. *)

val pp : Format.formatter -> result -> unit
