(* The shared evaluation sweep behind Figures 3-7: for every (case,
   heuristic, ETC, DAG) combination, run the paper's two-stage weight
   search and keep the best feasible result together with that scenario's
   upper bound. Figures 3-7 are different projections of this one dataset,
   so it is computed once and reused. *)

open Agrid_platform
open Agrid_workload
open Agrid_tuner

type heuristic = Slrh1 | Slrh3 | Maxmax

let all_heuristics = [ Slrh1; Slrh3; Maxmax ]

let heuristic_name = function
  | Slrh1 -> "SLRH-1"
  | Slrh3 -> "SLRH-3"
  | Maxmax -> "Max-Max"

let runner_of (config : Config.t) = function
  | Slrh1 ->
      Weight_search.slrh_runner ~delta_t:config.Config.delta_t
        ~horizon:config.Config.horizon Agrid_core.Slrh.V1
  | Slrh3 ->
      Weight_search.slrh_runner ~delta_t:config.Config.delta_t
        ~horizon:config.Config.horizon Agrid_core.Slrh.V3
  | Maxmax -> Weight_search.maxmax_runner

type tuned = {
  case : Grid.case;
  heuristic : heuristic;
  etc_index : int;
  dag_index : int;
  best : Weight_search.run_result option;
      (** best feasible run; None when no weight point was feasible *)
  upper_bound : int;
}

type t = {
  config : Config.t;
  tuned : tuned list;
  upper_bounds : (Grid.case * int * int) list; (* case, etc_index, bound *)
}

let upper_bound_for (config : Config.t) ~case ~etc_index =
  let etc_full = Workload.etc_for_spec config.Config.spec ~etc_index in
  let etc = Agrid_etc.Etc.for_case etc_full case in
  let grid = Grid.of_case ~battery_scale:config.Config.spec.Spec.battery_scale case in
  (Agrid_core.Upper_bound.compute ~etc ~grid
     ~tau_seconds:config.Config.spec.Spec.tau_seconds)
    .Agrid_core.Upper_bound.t100_bound

let tune_one (config : Config.t) ~case ~heuristic ~etc_index ~dag_index ~upper_bound =
  let workload = Workload.build config.Config.spec ~etc_index ~dag_index ~case in
  let result =
    Weight_search.search ~coarse_step:config.Config.coarse_step
      ~fine_step:config.Config.fine_step ~fine_radius:config.Config.fine_radius
      (runner_of config heuristic) workload
  in
  { case; heuristic; etc_index; dag_index; best = result.Weight_search.best; upper_bound }

(* Full sweep: cases x heuristics x scenarios, scenario-parallel. *)
let run ?(on_progress = fun _ -> ()) (config : Config.t) =
  let upper_bounds =
    List.concat_map
      (fun case ->
        List.init config.Config.n_etcs (fun etc_index ->
            (case, etc_index, upper_bound_for config ~case ~etc_index)))
      Grid.all_cases
  in
  let ub_of case etc_index =
    let _, _, b =
      List.find (fun (c, e, _) -> c = case && e = etc_index) upper_bounds
    in
    b
  in
  let jobs =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun heuristic ->
            List.map
              (fun (etc_index, dag_index) -> (case, heuristic, etc_index, dag_index))
              (Config.scenarios config))
          all_heuristics)
      Grid.all_cases
    |> Array.of_list
  in
  let done_count = Atomic.make 0 in
  let tuned =
    Agrid_par.Parallel.map ?domains:config.Config.domains
      (fun (case, heuristic, etc_index, dag_index) ->
        let r =
          tune_one config ~case ~heuristic ~etc_index ~dag_index
            ~upper_bound:(ub_of case etc_index)
        in
        on_progress (Atomic.fetch_and_add done_count 1 + 1);
        r)
      jobs
  in
  { config; tuned = Array.to_list tuned; upper_bounds }

let select t ~case ~heuristic =
  List.filter (fun r -> r.case = case && r.heuristic = heuristic) t.tuned

(* Per-(case, heuristic) aggregates over scenarios with a feasible best.
   [n_failed] counts scenarios where no weight point was feasible. *)
type aggregate = {
  n_scenarios : int;
  n_failed : int;
  mean_t100 : float;
  mean_t100_over_ub : float;
  mean_wall_seconds : float;
  mean_t100_per_second : float;
}

let aggregate t ~case ~heuristic =
  let rs = select t ~case ~heuristic in
  let ok = List.filter_map (fun r -> Option.map (fun b -> (r, b)) r.best) rs in
  let n_scenarios = List.length rs in
  let n_failed = n_scenarios - List.length ok in
  if ok = [] then
    {
      n_scenarios;
      n_failed;
      mean_t100 = Float.nan;
      mean_t100_over_ub = Float.nan;
      mean_wall_seconds = Float.nan;
      mean_t100_per_second = Float.nan;
    }
  else begin
    let mean f =
      List.fold_left (fun acc x -> acc +. f x) 0. ok /. float_of_int (List.length ok)
    in
    {
      n_scenarios;
      n_failed;
      mean_t100 = mean (fun (_, b) -> float_of_int b.Weight_search.t100);
      mean_t100_over_ub =
        mean (fun (r, b) ->
            float_of_int b.Weight_search.t100 /. float_of_int (max 1 r.upper_bound));
      mean_wall_seconds = mean (fun (_, b) -> b.Weight_search.wall_seconds);
      mean_t100_per_second =
        mean (fun (_, b) ->
            float_of_int b.Weight_search.t100
            /. Float.max 1e-9 b.Weight_search.wall_seconds);
    }
  end

(* Optimal-weight statistics for Figure 3: avg/min/max alpha and beta over
   scenarios with a feasible best. *)
type weight_stats = {
  n : int;
  alpha_mean : float;
  alpha_min : float;
  alpha_max : float;
  beta_mean : float;
  beta_min : float;
  beta_max : float;
}

let weight_stats t ~case ~heuristic =
  let open Agrid_core in
  let ws =
    List.filter_map
      (fun r ->
        Option.map
          (fun b -> (b.Weight_search.weights.Objective.alpha, b.Weight_search.weights.Objective.beta))
          r.best)
      (select t ~case ~heuristic)
  in
  match ws with
  | [] -> None
  | _ ->
      let alphas = Array.of_list (List.map fst ws) in
      let betas = Array.of_list (List.map snd ws) in
      let open Agrid_stats.Descriptive in
      Some
        {
          n = List.length ws;
          alpha_mean = mean alphas;
          alpha_min = min alphas;
          alpha_max = max alphas;
          beta_mean = mean betas;
          beta_min = min betas;
          beta_max = max betas;
        }
