(** On-the-fly Lagrangian multiplier adjustment — the paper's stated future
    work (Section VIII): a subgradient-flavoured outer loop that moves
    (alpha, beta) along the constraint-violation signal instead of grid
    searching. Typically reaches most of the grid-search quality in an
    order of magnitude fewer heuristic runs (bench ablation "adaptive"). *)

type step = {
  iteration : int;
  alpha : float;
  beta : float;
  t100 : int;
  aet : int;
  feasible : bool;
}

type result = {
  best : Weight_search.run_result option;
  trace : step list;
  evaluations : int;
}

val tune :
  ?init:float * float ->
  ?iterations:int ->
  Weight_search.runner ->
  Agrid_workload.Workload.t ->
  result
(** Defaults: init (0.3, 0.3), 16 iterations. The step size at round [k]
    is [0.15 / sqrt k].
    @raise Invalid_argument on nonpositive [iterations]. *)

val pp_step : Format.formatter -> step -> unit
