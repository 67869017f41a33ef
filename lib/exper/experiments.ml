(* One function per paper table/figure, each returning a renderable
   Table/Series (the per-experiment index lives in DESIGN.md section 4).
   Tables 1-2 are static constants; Tables 3-4 derive from the generated
   ETC matrices; Figure 2 is a delta_t sweep; Figures 3-7 are projections
   of the shared Evaluation sweep. *)

open Agrid_platform
open Agrid_workload
open Agrid_report

let f2 v = Fmt.str "%.2f" v
let f3 v = Fmt.str "%.3f" v

(* ---- Table 1: simulation configurations ---- *)

let table1 () =
  let row case =
    let g = Grid.of_case case in
    [
      Grid.case_name case;
      string_of_int (Grid.count_klass g Machine.Fast);
      string_of_int (Grid.count_klass g Machine.Slow);
    ]
  in
  Table.make ~title:"Table 1. Simulation configurations"
    ~columns:[ "Configuration"; "# \"Fast\" Machines"; "# \"Slow\" Machines" ]
    ~rows:(List.map row Grid.all_cases)

(* ---- Table 2: machine parameters ---- *)

let table2 () =
  let f = Machine.fast_profile and s = Machine.slow_profile in
  Table.make ~title:"Table 2. B(j), C(j), E(j), BW(j) for fast and slow machines"
    ~columns:[ ""; "\"Fast\" Machines"; "\"Slow\" Machines" ]
    ~rows:
      [
        [ "B(j)"; Fmt.str "%g energy units" f.Machine.battery;
          Fmt.str "%g energy units" s.Machine.battery ];
        [ "C(j)"; Fmt.str "%g energy units/sec" f.Machine.transmit_rate;
          Fmt.str "%g energy units/sec" s.Machine.transmit_rate ];
        [ "E(j)"; Fmt.str "%g energy units/sec" f.Machine.compute_rate;
          Fmt.str "%g energy units/sec" s.Machine.compute_rate ];
        [ "BW(j)"; Fmt.str "%g megabits/sec" (f.Machine.bandwidth /. 1e6);
          Fmt.str "%g megabits/sec" (s.Machine.bandwidth /. 1e6) ];
      ]

(* ---- Table 3: average minimum relative speed ---- *)

(* Per case: mean (std) of MR(j) for each non-reference machine across the
   configured ETC matrices. Machine 0 is the reference (MR = 1). *)
let table3 (config : Config.t) =
  let case_stats case =
    let columns = Agrid_etc.Etc.case_columns case in
    let per_etc =
      Array.init config.Config.n_etcs (fun etc_index ->
          let etc =
            Agrid_etc.Etc.for_case (Workload.etc_for_spec config.Config.spec ~etc_index) case
          in
          Agrid_core.Upper_bound.min_ratios etc)
    in
    (* machine labels from the Case A column identity *)
    List.filteri
      (fun j _ -> j > 0)
      (Array.to_list
         (Array.mapi
            (fun j col ->
              let label =
                match col with
                | 1 -> "\"Fast\" Machine 1"
                | 2 -> "\"Slow\" Machine 1"
                | 3 -> "\"Slow\" Machine 2"
                | _ -> Fmt.str "Machine %d" col
              in
              let vals = Array.map (fun mr -> mr.(j)) per_etc in
              (label, Agrid_stats.Descriptive.mean vals, Agrid_stats.Descriptive.stddev vals))
            columns))
  in
  let labels =
    [ "\"Fast\" Machine 1"; "\"Slow\" Machine 1"; "\"Slow\" Machine 2" ]
  in
  let row case =
    let stats = case_stats case in
    Grid.case_name case
    :: List.map
         (fun label ->
           match List.find_opt (fun (l, _, _) -> l = label) stats with
           | Some (_, mean, std) -> Fmt.str "%s (%s)" (f2 mean) (f2 std)
           | None -> "-")
         labels
  in
  Table.make ~title:"Table 3. Average minimum relative speed (mean (std) across ETCs)"
    ~columns:("Case" :: labels)
    ~rows:(List.map row Grid.all_cases)

(* ---- Table 4: upper bound per ETC per case ---- *)

let table4 (config : Config.t) =
  let bound case etc_index = Evaluation.upper_bound_for config ~case ~etc_index in
  let rows =
    List.init config.Config.n_etcs (fun etc_index ->
        string_of_int etc_index
        :: List.map (fun case -> string_of_int (bound case etc_index)) Grid.all_cases)
  in
  Table.make
    ~title:
      (Fmt.str "Table 4. Upper bound on T100 (|T| = %d)" config.Config.spec.Spec.n_tasks)
    ~columns:
      [
        "ETC";
        "Case A (2 fast, 2 slow)";
        "Case B (2 fast, 1 slow)";
        "Case C (1 fast, 2 slow)";
      ]
    ~rows

(* ---- Figure 2: impact of delta_t on SLRH-1 ---- *)

(* T100 and heuristic execution time vs delta_t, SLRH-1, ETC 0, two DAGs,
   Case A (fixed weights; the paper ran this sweep before the weight
   study). *)
let figure2 (config : Config.t) =
  let weights = Agrid_core.Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  let values = Agrid_tuner.Sweep.figure2_delta_t_values in
  let sweep dag_index =
    let workload =
      Workload.build config.Config.spec ~etc_index:0 ~dag_index ~case:Grid.A
    in
    Agrid_tuner.Sweep.delta_t ~horizon:config.Config.horizon ~weights ~values workload
  in
  let s0 = sweep 0 and s1 = sweep 1 in
  let t100 pts = List.map (fun p -> Some (float_of_int p.Agrid_tuner.Sweep.t100)) pts in
  let wall pts = List.map (fun p -> Some p.Agrid_tuner.Sweep.wall_seconds) pts in
  Series.make
    ~title:"Figure 2. Impact of delta-T on SLRH-1 (ETC 0, Case A)"
    ~x_label:"delta_t (cycles)"
    ~xs:(List.map string_of_int values)
    ~series:
      [
        ("T100 (DAG 0)", t100 s0);
        ("T100 (DAG 1)", t100 s1);
        ("exec time s (DAG 0)", wall s0);
        ("exec time s (DAG 1)", wall s1);
      ]

(* ---- Figure 3: optimal weight ranges ---- *)

let figure3 (ev : Evaluation.t) =
  let heuristics = [ Evaluation.Slrh1; Evaluation.Maxmax ] in
  let rows =
    List.concat_map
      (fun heuristic ->
        List.map
          (fun case ->
            match Evaluation.weight_stats ev ~case ~heuristic with
            | None ->
                [ Evaluation.heuristic_name heuristic; Grid.case_name case;
                  "-"; "-"; "-"; "-"; "-"; "-" ]
            | Some s ->
                [
                  Evaluation.heuristic_name heuristic;
                  Grid.case_name case;
                  f3 s.Evaluation.alpha_mean;
                  f3 s.Evaluation.alpha_min;
                  f3 s.Evaluation.alpha_max;
                  f3 s.Evaluation.beta_mean;
                  f3 s.Evaluation.beta_min;
                  f3 s.Evaluation.beta_max;
                ])
          Grid.all_cases)
      heuristics
  in
  Table.make
    ~title:
      "Figure 3. Optimal objective-function weights per case (avg/min/max across scenarios)"
    ~columns:
      [ "Heuristic"; "Case"; "a mean"; "a min"; "a max"; "b mean"; "b min"; "b max" ]
    ~rows

(* ---- Figures 4-7: per-case heuristic comparisons ---- *)

let comparison_series (ev : Evaluation.t) ~title ~metric =
  let xs = List.map Grid.case_name Grid.all_cases in
  let series =
    List.map
      (fun heuristic ->
        ( Evaluation.heuristic_name heuristic,
          List.map
            (fun case ->
              let a = Evaluation.aggregate ev ~case ~heuristic in
              let v = metric a in
              if Float.is_nan v then None else Some v)
            Grid.all_cases ))
      Evaluation.all_heuristics
  in
  Series.make ~title ~x_label:"Configuration" ~xs ~series

let figure4 ev =
  comparison_series ev
    ~title:"Figure 4. Heuristic performance: mean number of primary versions mapped (T100)"
    ~metric:(fun a -> a.Evaluation.mean_t100)

let figure5 ev =
  comparison_series ev
    ~title:"Figure 5. Heuristic performance vs calculated upper bound (mean T100 / UB)"
    ~metric:(fun a -> a.Evaluation.mean_t100_over_ub)

let figure6 ev =
  comparison_series ev
    ~title:"Figure 6. Mean heuristic execution time at optimal weights (seconds)"
    ~metric:(fun a -> a.Evaluation.mean_wall_seconds)

let figure7 ev =
  comparison_series ev
    ~title:"Figure 7. Performance per unit execution time (mean T100 / second)"
    ~metric:(fun a -> a.Evaluation.mean_t100_per_second)

(* ---- Extension study: machine loss mid-run ---- *)

(* Final T100 as a function of the loss instant, for losing a slow or a
   fast machine out of Case A — the dynamic transition the paper's static
   Cases B and C bracket. One series per lost machine class. *)
let extension_loss_sweep (config : Config.t) =
  let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let fractions = [ 0.0; 0.1; 0.25; 0.5; 0.75 ] in
  let workload = Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Grid.A in
  let params =
    {
      (Agrid_core.Slrh.default_params weights) with
      Agrid_core.Slrh.delta_t = config.Config.delta_t;
      horizon = config.Config.horizon;
    }
  in
  let tau = Workload.tau workload in
  let sweep machine =
    List.map
      (fun fraction ->
        let at = int_of_float (float_of_int tau *. fraction) in
        let o =
          Agrid_core.Dynamic.run_churn params workload
            [ { Agrid_churn.Event.at; kind = Agrid_churn.Event.Leave machine } ]
        in
        Some (float_of_int (Agrid_sched.Schedule.n_primary o.Agrid_churn.Engine.schedule)))
      fractions
  in
  Series.make
    ~title:"Extension: final T100 vs machine-loss instant (Case A, fixed weights)"
    ~x_label:"loss at (fraction of tau)"
    ~xs:(List.map (Fmt.str "%.2f") fractions)
    ~series:[ ("lose slow machine 3", sweep 3); ("lose fast machine 1", sweep 1) ]

(* ---- SLRH-2 failure-rate check (paper: "rarely produced a successful
   mapping ... regardless of the choice of alpha and beta") ---- *)

let slrh2_failure_rate (config : Config.t) =
  let points = Agrid_tuner.Weight_search.simplex_grid ~step:0.2 in
  let scenarios = Config.scenarios config in
  let total = ref 0 and feasible = ref 0 in
  List.iter
    (fun (etc_index, dag_index) ->
      let workload =
        Workload.build config.Config.spec ~etc_index ~dag_index ~case:Grid.A
      in
      List.iter
        (fun (alpha, beta) ->
          incr total;
          let r =
            Agrid_tuner.Weight_search.slrh_runner ~delta_t:config.Config.delta_t
              ~horizon:config.Config.horizon Agrid_core.Slrh.V2
              (Agrid_core.Objective.make_weights ~alpha ~beta)
              workload
          in
          if r.Agrid_tuner.Weight_search.feasible then incr feasible)
        points)
    scenarios;
  (!feasible, !total)
