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

val tune : Weight_search.runner -> Agrid_workload.Workload.t -> result
(** 16 runs from (alpha, beta) = (0.3, 0.3). The step size at round [k]
    is [0.15 / sqrt k]. *)

val pp_step : Format.formatter -> step -> unit
