(** The shared evaluation sweep behind paper Figures 3-7: per (case,
    heuristic, scenario), the paper's two-stage weight search plus that
    scenario's upper bound. Computed once; the figures are projections. *)

open Agrid_platform
open Agrid_tuner

type heuristic = Slrh1 | Slrh3 | Maxmax

val all_heuristics : heuristic list
val heuristic_name : heuristic -> string

type tuned = {
  case : Grid.case;
  heuristic : heuristic;
  etc_index : int;
  dag_index : int;
  best : Weight_search.run_result option;
      (** best feasible run; [None] when no weight point was feasible *)
  upper_bound : int;
}

type t = {
  config : Config.t;
  tuned : tuned list;
  upper_bounds : (Grid.case * int * int) list;  (** case, etc_index, bound *)
}

val upper_bound_for : Config.t -> case:Grid.case -> etc_index:int -> int

val run : ?on_progress:(int -> unit) -> Config.t -> t
(** Full sweep over {!all_heuristics}, scenario-parallel over the
    configured domains. *)

val select : t -> case:Grid.case -> heuristic:heuristic -> tuned list

type aggregate = {
  n_scenarios : int;
  n_failed : int;  (** scenarios with no feasible weight point *)
  mean_t100 : float;
  mean_t100_over_ub : float;
  mean_wall_seconds : float;
  mean_t100_per_second : float;
}

val aggregate : t -> case:Grid.case -> heuristic:heuristic -> aggregate
(** Means are [nan] when every scenario failed. *)

type weight_stats = {
  n : int;
  alpha_mean : float;
  alpha_min : float;
  alpha_max : float;
  beta_mean : float;
  beta_min : float;
  beta_max : float;
}

val weight_stats : t -> case:Grid.case -> heuristic:heuristic -> weight_stats option
(** Figure 3's statistic; [None] when no scenario had a feasible best. *)
