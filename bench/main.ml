(* Benchmark / reproduction harness: regenerates every table and figure of
   the paper's evaluation (Tables 1-4, Figures 2-7), runs the ablations
   called out in DESIGN.md, and finishes with bechamel micro-benchmarks of
   each experiment kernel.

   Default scale is the proportionally scaled workload (|T| = 128, 3 ETCs x
   3 DAGs); pass --full for the paper's |T| = 1024 with 10 x 10 scenarios
   (hours of compute on one core). See EXPERIMENTS.md for paper-vs-measured
   commentary on each artefact. *)

open Agrid_exper
open Agrid_report

type options = {
  full : bool;
  seed : int;
  quick : bool; (* smoke scale, used by CI *)
  skip_bechamel : bool;
  skip_figures : bool;
  obs_only : bool; (* just the observability profile (the CI perf gate input) *)
}

let parse_options () =
  let opts =
    ref
      {
        full = false;
        seed = 2004;
        quick = false;
        skip_bechamel = false;
        skip_figures = false;
        obs_only = false;
      }
  in
  let rec walk = function
    | [] -> ()
    | "--full" :: rest ->
        opts := { !opts with full = true };
        walk rest
    | "--quick" :: rest ->
        opts := { !opts with quick = true };
        walk rest
    | "--skip-bechamel" :: rest ->
        opts := { !opts with skip_bechamel = true };
        walk rest
    | "--skip-figures" :: rest ->
        opts := { !opts with skip_figures = true };
        walk rest
    | "--obs-only" :: rest ->
        opts := { !opts with obs_only = true };
        walk rest
    | "--seed" :: v :: rest ->
        opts := { !opts with seed = int_of_string v };
        walk rest
    | arg :: _ ->
        Fmt.epr "unknown argument %S@." arg;
        Fmt.epr
          "usage: main.exe [--full|--quick] [--seed N] [--skip-bechamel] [--skip-figures] [--obs-only]@.";
        exit 2
  in
  walk (List.tl (Array.to_list Sys.argv));
  !opts

let config_of options =
  if options.full then Config.full ~seed:options.seed ()
  else if options.quick then Config.smoke ~seed:options.seed ()
  else Config.default ~seed:options.seed ()

let section title = Fmt.pr "@.=== %s ===@.@." title

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Fmt.pr "[%s: %.1f s]@." name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)

let run_tables config =
  section "Table 1 (static configuration)";
  Fmt.pr "%a@." Table.pp (Experiments.table1 ());
  section "Table 2 (machine parameters)";
  Fmt.pr "%a@." Table.pp (Experiments.table2 ());
  section "Table 3 (average minimum relative speed)";
  timed "table3" (fun () -> Fmt.pr "%a@." Table.pp (Experiments.table3 config));
  section "Table 4 (upper bound on T100)";
  timed "table4" (fun () -> Fmt.pr "%a@." Table.pp (Experiments.table4 config))

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)

let run_figure2 config =
  section "Figure 2 (impact of delta-T on SLRH-1)";
  timed "figure2" (fun () ->
      Fmt.pr "%a@." Series.pp (Experiments.figure2 config))

let run_evaluation_figures config =
  section "Weight-search evaluation (drives Figures 3-7)";
  let total =
    List.length Agrid_platform.Grid.all_cases
    * List.length Evaluation.all_heuristics
    * List.length (Config.scenarios config)
  in
  Fmt.pr "tuning %d (case x heuristic x scenario) combinations...@." total;
  let ev =
    timed "evaluation" (fun () ->
        Evaluation.run
          ~on_progress:(fun n ->
            if n mod 9 = 0 || n = total then Fmt.pr "  tuned %d/%d@?@." n total)
          config)
  in
  section "Figure 3 (optimal weight ranges)";
  Fmt.pr "%a@." Table.pp (Experiments.figure3 ev);
  section "Figure 4 (mean T100 per heuristic per case)";
  let f4 = Experiments.figure4 ev in
  Fmt.pr "%a@." Series.pp f4;
  Fmt.pr "%a@." (Series.pp_bars ~width:40) f4;
  section "Figure 5 (mean T100 / upper bound)";
  let f5 = Experiments.figure5 ev in
  Fmt.pr "%a@." Series.pp f5;
  Fmt.pr "%a@." (Series.pp_bars ~width:40) f5;
  section "Figure 6 (mean heuristic execution time, seconds)";
  Fmt.pr "%a@." Series.pp (Experiments.figure6 ev);
  section "Figure 7 (T100 per unit heuristic execution time)";
  Fmt.pr "%a@." Series.pp (Experiments.figure7 ev);
  ev

let run_slrh2_check config =
  section "SLRH-2 feasibility check (paper: dropped for rarely mapping all subtasks)";
  timed "slrh2" (fun () ->
      let feasible, total = Experiments.slrh2_failure_rate config in
      Fmt.pr
        "SLRH-2 produced a feasible complete mapping at %d of %d (weight x scenario) points (%.0f%%)@."
        feasible total
        (100. *. float_of_int feasible /. float_of_int (max 1 total)))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_horizon config =
  section "Ablation: receding horizon H (paper: negligible impact)";
  let open Agrid_workload in
  let workload = Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  let pts =
    Agrid_tuner.Sweep.horizon ~delta_t:config.Config.delta_t ~weights
      ~values:Agrid_tuner.Sweep.default_horizon_values workload
  in
  List.iter (fun p -> Fmt.pr "  H=%4d: %a@." p.Agrid_tuner.Sweep.value Agrid_tuner.Sweep.pp_point p) pts

let ablation_feasibility_mode config =
  section "Ablation: worst-case vs optimistic communication-energy feasibility";
  let open Agrid_workload in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  List.iter
    (fun mode ->
      let workload =
        Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
      in
      let params =
        {
          (Agrid_core.Slrh.default_params weights) with
          Agrid_core.Slrh.delta_t = config.Config.delta_t;
          horizon = config.Config.horizon;
          feas_mode = mode;
        }
      in
      let o = Agrid_core.Slrh.run params workload in
      let r = Agrid_sched.Validate.check o.Agrid_core.Slrh.schedule in
      Fmt.pr "  %-13s T100=%d feasible=%b wall=%.4fs@."
        (Agrid_core.Feasibility.mode_to_string mode)
        r.Agrid_sched.Validate.t100
        (Agrid_sched.Validate.feasible r)
        o.Agrid_core.Slrh.wall_seconds)
    [ Agrid_core.Feasibility.Conservative; Agrid_core.Feasibility.Optimistic ]

let ablation_maxmax_tau_gate config =
  section "Ablation: Max-Max per-placement tau gate (DESIGN.md section 5)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.6 ~beta:0.35 in
  List.iter
    (fun respect_tau ->
      let params =
        { (Agrid_baselines.Maxmax.default_params weights) with Agrid_baselines.Maxmax.respect_tau }
      in
      let o = Agrid_baselines.Maxmax.run params workload in
      let r = Agrid_sched.Validate.check o.Agrid_baselines.Maxmax.schedule in
      Fmt.pr "  respect_tau=%-5b T100=%d AET=%d/%d feasible=%b@." respect_tau
        r.Agrid_sched.Validate.t100 r.Agrid_sched.Validate.aet (Workload.tau workload)
        (Agrid_sched.Validate.feasible r))
    [ true; false ]

let ablation_adaptive config =
  section "Ablation: adaptive multiplier adjustment vs grid search (paper future work)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.C
  in
  let runner =
    Agrid_tuner.Weight_search.slrh_runner ~delta_t:config.Config.delta_t
      ~horizon:config.Config.horizon Agrid_core.Slrh.V1
  in
  let grid =
    timed "grid search" (fun () ->
        Agrid_tuner.Weight_search.search ~coarse_step:config.Config.coarse_step
          ~fine_step:config.Config.fine_step ~fine_radius:config.Config.fine_radius runner
          workload)
  in
  let adaptive = timed "adaptive" (fun () -> Agrid_tuner.Adaptive.tune runner workload) in
  let describe label best evaluations =
    match best with
    | None -> Fmt.pr "  %-9s no feasible point (%d evaluations)@." label evaluations
    | Some b ->
        Fmt.pr "  %-9s T100=%d at %a (%d evaluations)@." label
          b.Agrid_tuner.Weight_search.t100 Agrid_core.Objective.pp_weights
          b.Agrid_tuner.Weight_search.weights evaluations
  in
  describe "grid" grid.Agrid_tuner.Weight_search.best grid.Agrid_tuner.Weight_search.evaluations;
  describe "adaptive" adaptive.Agrid_tuner.Adaptive.best adaptive.Agrid_tuner.Adaptive.evaluations

(* The paper (Section IV): "the communications energy proved to be a
   negligible factor in the calculations". Measure the share directly. *)
let comm_energy_share config =
  section "Communication-energy share (paper: negligible)";
  let open Agrid_workload in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  List.iter
    (fun case ->
      let workload = Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case in
      let o = Agrid_core.Slrh.run (Agrid_core.Slrh.default_params weights) workload in
      let sched = o.Agrid_core.Slrh.schedule in
      let comm =
        Array.fold_left
          (fun acc (tr : Agrid_sched.Schedule.transfer) -> acc +. tr.Agrid_sched.Schedule.energy)
          0.
          (Agrid_sched.Schedule.transfers sched)
      in
      let total = Agrid_sched.Schedule.tec sched in
      Fmt.pr "  %-7s comm %.4f of %.2f total energy units (%.2f%%), %d transfers@."
        (Agrid_platform.Grid.name (Workload.grid workload))
        comm total
        (100. *. comm /. Float.max 1e-9 total)
        (Array.length (Agrid_sched.Schedule.transfers sched)))
    Agrid_platform.Grid.all_cases

(* Classical comparators outside the paper's evaluation: Min-Min [IbK77]
   (the template behind Max-Max) and the LRNN-style Lagrangian-relaxation
   static mapper [LuH93]/[LuZ00]/[CaS03] that SLRH grew out of. *)
let ablation_classical_baselines config =
  section "Ablation: classical baselines (Min-Min, Lagrangian relaxation static mapper)";
  let open Agrid_workload in
  List.iter
    (fun case ->
      let workload = Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case in
      Fmt.pr "  %s:@." (Agrid_platform.Grid.case_name case);
      List.iter
        (fun policy ->
          let params =
            { Agrid_baselines.Minmin.default_params with Agrid_baselines.Minmin.version_policy = policy }
          in
          let o = Agrid_baselines.Minmin.run ~params workload in
          let r = Agrid_sched.Validate.check o.Agrid_baselines.Minmin.schedule in
          Fmt.pr "    min-min %-17s T100=%3d AET=%6d feasible=%b@."
            (Agrid_baselines.Minmin.version_policy_to_string policy)
            r.Agrid_sched.Validate.t100 r.Agrid_sched.Validate.aet
            (Agrid_sched.Validate.feasible r))
        Agrid_baselines.Minmin.[ Secondary_allowed; Prefer_primary ];
      let o = Agrid_lrnn.Lrnn.run workload in
      let r = Agrid_sched.Validate.check o.Agrid_lrnn.Lrnn.schedule in
      Fmt.pr "    LRNN static mapper        T100=%3d AET=%6d feasible=%b (demoted %d, dual bound %.1f)@."
        r.Agrid_sched.Validate.t100 r.Agrid_sched.Validate.aet
        (Agrid_sched.Validate.feasible r) o.Agrid_lrnn.Lrnn.demoted
        o.Agrid_lrnn.Lrnn.dual_bound)
    Agrid_platform.Grid.all_cases

(* The paper's objective-sign discussion (Section IV): "Use of a negative
   sign on this term caused the heuristic to produce very short AET
   solutions, but with correspondingly lower T100 values." *)
let ablation_aet_sign config =
  section "Ablation: AET term sign (paper: negative sign -> short AET, low T100)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  List.iter
    (fun (label, sign) ->
      let weights =
        Agrid_core.Objective.with_aet_sign sign
          (Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3)
      in
      let params =
        {
          (Agrid_core.Slrh.default_params weights) with
          Agrid_core.Slrh.delta_t = config.Config.delta_t;
          horizon = config.Config.horizon;
        }
      in
      let o = Agrid_core.Slrh.run params workload in
      let r = Agrid_sched.Validate.check o.Agrid_core.Slrh.schedule in
      Fmt.pr "  %-8s T100=%3d AET=%6d feasible=%b@." label r.Agrid_sched.Validate.t100
        r.Agrid_sched.Validate.aet
        (Agrid_sched.Validate.feasible r))
    [ ("+gamma", Agrid_core.Objective.Reward); ("-gamma", Agrid_core.Objective.Penalise) ]

(* The paper sweeps machines "in simple numerical order"; how much does
   that choice matter? *)
let ablation_machine_order config =
  section "Ablation: machine sweep order (paper: simple numerical order)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  List.iter
    (fun order ->
      let params =
        {
          (Agrid_core.Slrh.default_params weights) with
          Agrid_core.Slrh.delta_t = config.Config.delta_t;
          horizon = config.Config.horizon;
          machine_order = order;
        }
      in
      let o = Agrid_core.Slrh.run params workload in
      let r = Agrid_sched.Validate.check o.Agrid_core.Slrh.schedule in
      Fmt.pr "  %-18s T100=%3d AET=%6d feasible=%b@."
        (Agrid_core.Slrh.machine_order_to_string order)
        r.Agrid_sched.Validate.t100 r.Agrid_sched.Validate.aet
        (Agrid_sched.Validate.feasible r))
    [ Agrid_core.Slrh.Numerical; Agrid_core.Slrh.Fast_first; Agrid_core.Slrh.Most_energy_first ]

(* Robustness extension: the ETC matrices are only ESTIMATES; execute the
   tuned plan under actual durations with increasing noise and measure how
   often the deadline survives. *)
let ablation_robustness config =
  section "Extension: schedule robustness under estimation error (ETC = estimated)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let params =
    {
      (Agrid_core.Slrh.default_params weights) with
      Agrid_core.Slrh.delta_t = config.Config.delta_t;
      horizon = config.Config.horizon;
    }
  in
  let sched = (Agrid_core.Slrh.run params workload).Agrid_core.Slrh.schedule in
  let trials = 40 in
  List.iter
    (fun cv ->
      let met = ref 0 and energy_ok = ref 0 and inflation = ref 0. in
      for seed = 0 to trials - 1 do
        let r =
          Agrid_sim.Executor.execute
            ~rng:(Agrid_prng.Splitmix64.of_int (1000 + seed))
            ~noise:(Agrid_sim.Executor.noise ~exec_cv:cv ~comm_cv:cv ())
            sched
        in
        if r.Agrid_sim.Executor.deadline_met then incr met;
        if r.Agrid_sim.Executor.energy_ok then incr energy_ok;
        inflation := !inflation +. r.Agrid_sim.Executor.aet_inflation
      done;
      Fmt.pr "  cv=%.2f: deadline met %d/%d, energy ok %d/%d, mean AET inflation x%.3f@."
        cv !met trials !energy_ok trials
        (!inflation /. float_of_int trials))
    [ 0.0; 0.05; 0.1; 0.2; 0.4; 0.8 ]

(* Dynamic-grid extension: loss and outage transitions between the static
   cases the paper evaluates. *)
let ablation_dynamic config =
  section "Extension: machine loss / outage mid-run (on-the-fly rescheduling)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let params = Agrid_core.Slrh.default_params weights in
  let tau = Workload.tau workload in
  let open Agrid_churn in
  let churn label events =
    let o = Agrid_core.Dynamic.run_churn params workload events in
    Fmt.pr "  %s: %a@." label Engine.pp_outcome o;
    List.iter (fun a -> Fmt.pr "    %a@." Engine.pp_applied a) o.Engine.applied
  in
  List.iter
    (fun (label, machine) ->
      churn
        (Fmt.str "lose %-14s at tau/4" label)
        [ { Event.at = tau / 4; kind = Event.Leave machine } ])
    [ ("slow machine 3", 3); ("fast machine 1", 1) ];
  churn "outage fast machine 1 [tau/10, tau/2)"
    [
      { Event.at = tau / 10; kind = Event.Leave 1 };
      { Event.at = tau / 2; kind = Event.Rejoin 1 };
    ];
  Fmt.pr "@.%a@." Agrid_report.Series.pp (Experiments.extension_loss_sweep config)

let report_tau_calibration config =
  section "tau calibration (paper method: greedy static heuristic experiments)";
  let spec = config.Config.spec in
  let open Agrid_workload in
  let tau = Spec.tau_cycles spec in
  let calibrated = Agrid_baselines.Calibrate.tau_cycles spec in
  Fmt.pr "  spec tau (paper-proportional) : %d cycles (%.0f s)@." tau spec.Spec.tau_seconds;
  Fmt.pr "  greedy-calibrated tau         : %d cycles (slack 1.0)@." calibrated;
  Fmt.pr "  ratio spec/greedy             : %.2f@."
    (float_of_int tau /. float_of_int (max 1 calibrated))

(* ------------------------------------------------------------------ *)
(* Observability profile                                               *)

(* One instrumented SLRH-1 run plus one churn run (leave + rejoin) through
   the telemetry sink; the span and counter aggregates land in
   BENCH_obs.json (format documented in DESIGN.md, "Observability"). *)
let run_obs_profile config ~t0 =
  section "Observability profile (BENCH_obs.json)";
  let open Agrid_workload in
  let workload =
    Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let sink = Agrid_obs.Sink.create ~stride:8 () in
  let params =
    {
      (Agrid_core.Slrh.default_params weights) with
      Agrid_core.Slrh.delta_t = config.Config.delta_t;
      horizon = config.Config.horizon;
      obs = sink;
    }
  in
  let o = Agrid_core.Slrh.run params workload in
  (* Scheduler-quality counters for the CI regression gate: T100 and the
     mapped count are seed-deterministic, so check_regression compares
     them exactly while span timings get a hardware tolerance. *)
  Agrid_obs.Sink.add sink "bench/t100"
    (Agrid_sched.Schedule.n_primary o.Agrid_core.Slrh.schedule);
  Agrid_obs.Sink.add sink "bench/mapped"
    (Agrid_sched.Schedule.n_mapped o.Agrid_core.Slrh.schedule);
  let tau = Workload.tau workload in
  ignore
    (Agrid_core.Dynamic.run_churn params workload
       [
         { Agrid_churn.Event.at = tau / 8; kind = Agrid_churn.Event.Leave 1 };
         { Agrid_churn.Event.at = tau / 2; kind = Agrid_churn.Event.Rejoin 1 };
       ]);
  (* Pool-reuse rate of the soa mode (the default above): both
     counters are seed-deterministic, so the CI gate pins them exactly —
     a drop in the reuse rate is a perf regression even before it shows
     up in span timings. *)
  let counter name =
    match
      List.assoc_opt name
        (List.filter_map
           (fun (n, m) ->
             match m with Agrid_obs.Registry.Counter c -> Some (n, c) | _ -> None)
           (Agrid_obs.Sink.metrics sink))
    with
    | Some c -> c
    | None -> 0
  in
  let reused = counter "slrh/pool_reused" and rebuilt = counter "slrh/pool_rebuilt" in
  if reused + rebuilt > 0 then
    Fmt.pr "pool reuse: %d of %d builds (%.1f%%)@." reused (reused + rebuilt)
      (100. *. float_of_int reused /. float_of_int (reused + rebuilt));
  (* Steady-state allocation budget of the SoA arena (the default mode
     above): two fresh runs of a commit-free scenario (batteries scaled
     to ~nothing, so every pool filters empty) that differ only in
     timestep count. Machine 0 is kept busy at every grid point of both
     runs, so no sweep is jumped and every timestep is really swept.
     Per-run constants — arena construction, the schedule, the loop
     closures — cancel in the difference, leaving bytes per steady-state
     timestep. Committed as the "slrh/minor_alloc_bytes" gauge, which
     check_regression treats as an upper-bound budget: the committed
     value is 0, so any new per-timestep allocation fails the gate. *)
  let steady_workload =
    Workload.build
      {
        config.Config.spec with
        Spec.battery_scale = 1e-9 *. config.Config.spec.Spec.battery_scale;
      }
      ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let dt_a = config.Config.delta_t and dt_b = max 1 (config.Config.delta_t / 2) in
  (* [~far_roots] also replays every root on machines 1.. far past tau,
     so the normal-battery workload's pools stay non-empty yet the
     parent-ready bound rules every candidate out: each swept step
     re-scores, selects and walks them without planning or committing. *)
  let swept_schedule ~far_roots wl =
    let sched = Agrid_sched.Schedule.create wl in
    let m = Workload.n_machines wl in
    let far = 10 * Workload.tau wl in
    if far_roots then
      List.iteri
        (fun i task ->
          Agrid_sched.Schedule.replay_placement sched
            {
              Agrid_sched.Schedule.task;
              version = Version.Primary;
              machine = 1 + (i mod (m - 1));
              start = far + (10 * i);
              stop = far + (10 * i) + 5;
            })
        (Agrid_dag.Dag.roots (Workload.dag wl));
    let busy = Agrid_sched.Schedule.exec_timeline sched 0 in
    List.iter
      (fun dt ->
        for k = 0 to (Workload.tau wl / dt) + 1 do
          if Agrid_sched.Timeline.is_free busy ~start:(k * dt) ~stop:((k * dt) + 1) then
            Agrid_sched.Timeline.insert busy ~start:(k * dt) ~stop:((k * dt) + 1)
        done)
      [ dt_a; dt_b ];
    sched
  in
  let steady_run ~far_roots wl ~delta_t =
    let p = { params with Agrid_core.Slrh.delta_t; obs = Agrid_obs.Sink.noop } in
    let sched = swept_schedule ~far_roots wl in
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let o = Agrid_core.Slrh.continue_run p sched in
    Gc.minor ();
    let after = Gc.allocated_bytes () in
    (o.Agrid_core.Slrh.stats, after -. before)
  in
  let per_step_bytes ~far_roots wl =
    ignore (steady_run ~far_roots wl ~delta_t:config.Config.delta_t) (* warm-up *);
    let a, bytes_a = steady_run ~far_roots wl ~delta_t:dt_a in
    let b, bytes_b = steady_run ~far_roots wl ~delta_t:dt_b in
    let steps (st : Agrid_core.Slrh.stats) = st.Agrid_core.Slrh.clock_steps in
    ( (bytes_b -. bytes_a) /. float_of_int (max 1 (steps b - steps a)),
      steps a,
      steps b,
      b.Agrid_core.Slrh.candidates_scored )
  in
  let per_step, steps_a, steps_b, _ = per_step_bytes ~far_roots:false steady_workload in
  Agrid_obs.Sink.set_gauge sink "slrh/minor_alloc_bytes" per_step;
  Fmt.pr "steady-state allocation: %g bytes/timestep (%d vs %d steps)@." per_step
    steps_a steps_b;
  (* The same budget over non-empty pools: every swept step re-scores
     them (the batch scorer's steady state), committed as
     "slrh/minor_alloc_bytes_bounded" with a budget of 0. *)
  let bounded, steps_a, steps_b, scored = per_step_bytes ~far_roots:true workload in
  Agrid_obs.Sink.set_gauge sink "slrh/minor_alloc_bytes_bounded" bounded;
  Fmt.pr
    "bounded-out pools allocation: %g bytes/timestep (%d vs %d steps, %d candidates \
     scored)@."
    bounded steps_a steps_b scored;
  (* Whole-run allocation budget: bytes one SoA SLRH-1 run of the
     pinned-scale scenario allocates after a warm-up (Spec.scaled ~seed:7
     ~factor:0.125, Case A, ETC/DAG 0, delta_t 100 — serve-pinned-repeat's
     scale and timestep; test_alloc measures the same run). Committed as
     the "slrh/minor_alloc_bytes_run" budget: a plan, a commit or a priced
     pair that starts allocating again fails the gate. *)
  let run_bytes =
    let wl =
      Workload.build (Spec.scaled ~seed:7 ~factor:0.125 ()) ~etc_index:0 ~dag_index:0
        ~case:Agrid_platform.Grid.A
    in
    let p =
      {
        (Agrid_core.Slrh.default_params
           (Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3))
        with
        Agrid_core.Slrh.delta_t = 100;
      }
    in
    ignore (Agrid_core.Slrh.run p wl);
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Agrid_core.Slrh.run p wl));
    Gc.minor ();
    Gc.allocated_bytes () -. before
  in
  Agrid_obs.Sink.set_gauge sink "slrh/minor_alloc_bytes_run" run_bytes;
  Fmt.pr "pinned-scale run allocation: %g bytes@." run_bytes;
  (* Realize allocation budgets: bytes one [Serialize.realize] allocates,
     after a warm-up, for a fixed generated scenario (31 tasks, the shape
     serve-closed sends) and a fixed pinned text (128 tasks, ~15 KB, the
     shape serve-pinned-repeat sends). Allocation is deterministic, so
     check_regression treats the committed "realize/" gauges as
     upper-bound budgets. *)
  let realize_bytes scenario =
    ignore (Serialize.realize scenario);
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Serialize.realize scenario));
    Gc.minor ();
    Gc.allocated_bytes () -. before
  in
  let generated =
    Serialize.Generated
      { seed = 5; scale = 0.03; etc_index = 1; dag_index = 2; case = Agrid_platform.Grid.B }
  in
  let pinned =
    Serialize.Pinned
      (Serialize.to_string
         (Serialize.spec_for ~seed:3 ~scale:0.125)
         ~etc_index:1 ~dag_index:2 ~case:Agrid_platform.Grid.A)
  in
  let gen_bytes = realize_bytes generated and pinned_bytes = realize_bytes pinned in
  Agrid_obs.Sink.set_gauge sink "realize/minor_alloc_bytes_generated" gen_bytes;
  Agrid_obs.Sink.set_gauge sink "realize/minor_alloc_bytes_pinned" pinned_bytes;
  Fmt.pr "realize allocation: generated %g bytes, pinned %g bytes@." gen_bytes
    pinned_bytes;
  (* SoA vs rescan-oracle scoring latency, measured in one process so the
     host's speed cancels: committed as the "slrh/score_speedup_p50"
     gauge (rescan p50 over soa p50), which check_regression holds above a
     fixed share of its baseline, so scoring cannot silently fall back to
     boxed-path speed on any host. *)
  let score_p50 mode =
    let s = Agrid_obs.Sink.create ~stride:8 () in
    ignore
      (Agrid_core.Slrh.run { params with Agrid_core.Slrh.mode; obs = s } workload);
    match
      List.find_opt
        (fun (st : Agrid_obs.Span.stats) -> st.Agrid_obs.Span.name = "slrh/score")
        (Agrid_obs.Sink.span_stats s)
    with
    | Some st -> st.Agrid_obs.Span.p50_s
    | None -> Float.nan
  in
  let soa_p50 = score_p50 `Soa and rescan_p50 = score_p50 `Rescan in
  Agrid_obs.Sink.set_gauge sink "slrh/score_speedup_p50" (rescan_p50 /. soa_p50);
  Fmt.pr "slrh/score p50: soa %.3gus, rescan %.3gus (%.1fx)@." (1e6 *. soa_p50)
    (1e6 *. rescan_p50)
    (rescan_p50 /. soa_p50);
  (* Codec encode speed against memory speed, in one process so the
     host's speed cancels: the p50 time of a plain [Bytes.of_string] copy
     of a pinned request line (the ~15 KB shape serve-pinned-repeat
     sends) over the p50 time of encoding that request with
     [Json.to_string (Codec.job_to_json _)]. Committed as the
     "codec/encode_speedup_p50" gauge, which check_regression holds above
     a share of its baseline, so an encoder that falls back to per-byte
     work fails on any host. Each sample times a batch of calls, copies
     and encodes interleaved so both see the same noise. *)
  let encode_speedup =
    let spec =
      {
        (Agrid_serve.Job.default pinned) with
        Agrid_serve.Job.tag = Some "17";
        delta_t = 100;
      }
    in
    let encode () = Agrid_obs.Json.to_string (Agrid_serve.Codec.job_to_json spec) in
    let line = encode () in
    let batch f =
      let t0 = Agrid_obs.Clock.monotonic_ns () in
      for _ = 1 to 8 do
        ignore (Sys.opaque_identity (f ()))
      done;
      Int64.sub (Agrid_obs.Clock.monotonic_ns ()) t0
    in
    let samples = 501 in
    let copies = Array.make samples 0L and encodes = Array.make samples 0L in
    for i = 0 to samples - 1 do
      copies.(i) <- batch (fun () -> Bytes.of_string line);
      encodes.(i) <- batch encode
    done;
    let p50 a =
      Array.sort Int64.compare a;
      Int64.to_float a.(samples / 2)
    in
    let copy_p50 = p50 copies and encode_p50 = p50 encodes in
    Fmt.pr "codec encode p50: %.3gus per %d-byte pinned request, copy %.3gus (%.3f)@."
      (encode_p50 /. 8e3) (String.length line) (copy_p50 /. 8e3) (copy_p50 /. encode_p50);
    copy_p50 /. encode_p50
  in
  Agrid_obs.Sink.set_gauge sink "codec/encode_speedup_p50" encode_speedup;
  (* Sharded Monte Carlo campaign profile: a separate sink so the
     campaign's counters land in their own gated section. Counter totals
     are shard-count-invariant (pinned by the differential suite), so the
     gate compares them exactly even though the bench machine's domain
     count varies. *)
  let campaign_sink = Agrid_obs.Sink.create ~stride:8 () in
  let levels =
    Agrid_exper.Campaign.run ~obs:campaign_sink ~weights ~intensities:[ 0.0; 2.0 ]
      ~replicates:8 ~shards:2 ~seed:2004 config
  in
  Fmt.pr "campaign: %d levels, completion %s@." (List.length levels)
    (String.concat "/"
       (List.map
          (fun (l : Agrid_exper.Campaign.level) -> Fmt.str "%.2f" l.completion_rate)
          levels));
  (* Online dual-ascent profile: one adaptive-lagrange run plus one churn
     run with chance-constrained admission, in its own gated section. The
     controller's trajectory is seed-deterministic (the differential
     suite pins adaptive rescan and soa modes bit-identical), so
     the gate compares lagrange/updates, lagrange/churn_updates and the
     final schedule counters exactly; the lambda gauges and the violation
     histogram never reach the summary (counters and spans only). A fresh
     controller per run — Adapt.t is mutable run state, not config. *)
  let lagrange_sink = Agrid_obs.Sink.create ~stride:8 () in
  let adapt_spec =
    { Agrid_core.Adapt.default_spec with Agrid_core.Adapt.prob = Some 0.9; sigma = 0.05 }
  in
  let adaptive_params () =
    {
      params with
      Agrid_core.Slrh.obs = lagrange_sink;
      adapt = Some (Agrid_core.Adapt.create adapt_spec weights);
      feas_mode = Agrid_core.Adapt.feas_mode adapt_spec;
    }
  in
  let ao = Agrid_core.Slrh.run (adaptive_params ()) workload in
  Agrid_obs.Sink.add lagrange_sink "bench/adaptive_t100"
    (Agrid_sched.Schedule.n_primary ao.Agrid_core.Slrh.schedule);
  Agrid_obs.Sink.add lagrange_sink "bench/adaptive_mapped"
    (Agrid_sched.Schedule.n_mapped ao.Agrid_core.Slrh.schedule);
  ignore
    (Agrid_core.Dynamic.run_churn (adaptive_params ()) workload
       [
         { Agrid_churn.Event.at = tau / 8; kind = Agrid_churn.Event.Leave 1 };
         { Agrid_churn.Event.at = tau / 2; kind = Agrid_churn.Event.Rejoin 1 };
       ]);
  (* Scenario-service profile: a fixed request mix through an in-process
     server, in its own gated section. Submissions happen before the
     worker pool starts (drain starts it lazily), so the queue overflow
     is deterministic; the gate pins the serve/* counters and the merged
     per-job scheduler counters exactly. Gauges and the latency histogram
     are excluded from the summary, so nothing timing-dependent lands in
     the gate. *)
  let serve_sink = Agrid_obs.Sink.create ~stride:8 () in
  let server =
    Agrid_serve.Server.create ~obs:serve_sink ~workers:2 ~queue_capacity:4 ()
  in
  let submit line = Agrid_serve.Server.submit server ~respond:ignore line in
  let job ?deadline_ms seed =
    let scenario =
      Serialize.Generated
        { seed; scale = 0.03; etc_index = 0; dag_index = 0; case = Agrid_platform.Grid.A }
    in
    let spec = { (Agrid_serve.Job.default scenario) with Agrid_serve.Job.deadline_ms } in
    Agrid_obs.Json.to_string (Agrid_serve.Codec.job_to_json spec)
  in
  submit "not json";
  submit "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}";
  submit (job 1);
  submit (job 2);
  submit (job ~deadline_ms:0. 3);
  submit (job 4);
  submit (job 5) (* fifth job overflows the capacity-4 queue: queue_full *);
  Agrid_serve.Server.drain server;
  let stats = Agrid_serve.Server.stats server in
  Fmt.pr "serve: %d requests, %d completed, %d deadline_missed, %d queue_full@."
    stats.Agrid_serve.Server.s_requests stats.Agrid_serve.Server.s_completed
    stats.Agrid_serve.Server.s_deadline_missed stats.Agrid_serve.Server.s_queue_full;
  (* Fleet-router profile: two in-process backends behind a router, in
     its own gated section. Submissions happen before the router starts
     (the dispatcher isn't running yet), so the capacity-4 admission
     overflow is deterministic; a huge probe interval means exactly the
     two connect-time probes ever run; backends deep enough for the
     in-flight cap mean saturation backpressure holds dispatches back
     instead of burning retry attempts, so fleet/retries is pinned at
     zero. Per-backend dispatch splits are timing-dependent and stay out
     of the sink (see Router), while the two backends' serve/* counters
     are deterministic in aggregate — so both backend sinks merge into
     the section sink and the gate compares everything exactly. *)
  let fleet_sink = Agrid_obs.Sink.create ~stride:8 () in
  let b0_sink = Agrid_obs.Sink.create ~stride:8 () in
  let b1_sink = Agrid_obs.Sink.create ~stride:8 () in
  let b0 = Agrid_fleet.Sim.create ~obs:b0_sink ~workers:2 ~queue_capacity:8 "b0" in
  let b1 = Agrid_fleet.Sim.create ~obs:b1_sink ~workers:2 ~queue_capacity:8 "b1" in
  let router =
    Agrid_fleet.Router.create ~obs:fleet_sink
      {
        Agrid_fleet.Router.default_config with
        Agrid_fleet.Router.queue_capacity = 4;
        inflight_cap = 4;
        probe_interval_s = 3600.;
        probe_timeout_s = 5.;
      }
      [ Agrid_fleet.Sim.spec b0; Agrid_fleet.Sim.spec b1 ]
  in
  let rsubmit line = Agrid_fleet.Router.submit router ~respond:ignore line in
  rsubmit "not json";
  rsubmit "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}";
  rsubmit (job 11);
  rsubmit (job 12);
  rsubmit (job 13);
  rsubmit (job 14);
  rsubmit (job 15) (* fifth job overflows the capacity-4 admission queue *);
  (match Agrid_fleet.Router.start router with
  | Ok () -> ()
  | Error msg -> failwith ("fleet bench: " ^ msg));
  Agrid_fleet.Router.drain router;
  let rstats = Agrid_fleet.Router.stats router in
  Fmt.pr "fleet: %d requests, %d completed, %d queue_full, %d retries, %d probes@."
    rstats.Agrid_fleet.Router.st_requests rstats.Agrid_fleet.Router.st_completed
    rstats.Agrid_fleet.Router.st_queue_full rstats.Agrid_fleet.Router.st_retries
    rstats.Agrid_fleet.Router.st_probes;
  Agrid_fleet.Sim.shutdown b0;
  Agrid_fleet.Sim.shutdown b1;
  Agrid_obs.Sink.merge_into ~into:fleet_sink b0_sink;
  Agrid_obs.Sink.merge_into ~into:fleet_sink b1_sink;
  (* Trace/window profile: a fixed event script through the trace
     collector and the rolling-window aggregator, in its own gated
     section. Event timestamps are wall-clock and stay out of the gate;
     the counts (ring occupancy, drop accounting on a deliberately tiny
     ring, exemplar retention, JSONL round-trip line count, window totals
     at explicit ~now stamps) are exact. *)
  let trace_sink = Agrid_obs.Sink.create ~stride:8 () in
  let module Trace = Agrid_obs.Trace in
  let script (tr : Trace.t) =
    for j = 0 to 9 do
      Trace.record tr ~job:j Trace.Enqueue;
      Trace.record tr ~job:j (Trace.Dispatch { backend = "b0"; attempt = 1 });
      if j mod 3 = 0 then
        Trace.record tr ~job:j (Trace.Retry { attempt = 2; delay_s = 0.01 });
      Trace.record tr ~job:j (Trace.Exec { queue_wait_s = 0.001 });
      Trace.record tr ~job:j (Trace.Respond { outcome = "result" })
    done
  in
  let tr = Trace.create ~nonce:7 ~capacity:64 ~exemplars:2 () in
  script tr;
  let tiny = Trace.create ~nonce:7 ~capacity:8 ~exemplars:2 () in
  script tiny;
  let roundtrip =
    match Trace.parse_jsonl (Trace.jsonl_lines tr) with
    | Ok lines -> List.length lines
    | Error _ -> 0
  in
  Agrid_obs.Sink.add trace_sink "trace/events" (Trace.length tr);
  Agrid_obs.Sink.add trace_sink "trace/pushed" (Trace.pushed tr);
  Agrid_obs.Sink.add trace_sink "trace/tiny_dropped" (Trace.dropped tiny);
  Agrid_obs.Sink.add trace_sink "trace/exemplars"
    (List.length (Trace.exemplars tr));
  Agrid_obs.Sink.add trace_sink "trace/roundtrip_lines" roundtrip;
  let w = Agrid_obs.Window.create ~slots:4 ~slot_s:1. () in
  let bounds = [| 0.01; 0.1; 1.0 |] in
  for i = 0 to 7 do
    let now = 0.5 +. float_of_int i in
    Agrid_obs.Window.incr w ~now "completed";
    Agrid_obs.Window.observe w ~now "latency_s" ~bounds
      (0.05 *. float_of_int (1 + (i mod 3)))
  done;
  (* slots 4 x 1 s at now = 7.5: only the writes at 4.5..7.5 survive *)
  Agrid_obs.Sink.add trace_sink "trace/window_total"
    (Agrid_obs.Window.total w ~now:7.5 "completed");
  Agrid_obs.Sink.add trace_sink "trace/window_count"
    (Agrid_obs.Window.count w ~now:7.5 "latency_s");
  Fmt.pr "trace: %d events (%d pushed), tiny ring dropped %d, %d exemplars, %d round-trip lines, window total %d@."
    (Trace.length tr) (Trace.pushed tr) (Trace.dropped tiny)
    (List.length (Trace.exemplars tr))
    roundtrip
    (Agrid_obs.Window.total w ~now:7.5 "completed");
  (* Multi-tenant traffic profile: a fixed two-tenant spec (one
     high-priority stream, one quota-capped stream) through the traffic
     engine, in its own gated section. The engine records only
     counters/gauges derived from the deterministic run — nothing
     wall-clock-dependent — so the gate compares the tenant/* counters
     exactly and the tec/reserved/fairness gauges ride along ungated
     (only slrh/-prefixed gauges are compared). *)
  let tenant_sink = Agrid_obs.Sink.create ~stride:8 () in
  let module Traffic = Agrid_tenant.Traffic in
  let module Tenant = Agrid_tenant.Tenant in
  let traffic_spec =
    Traffic.make_spec ~seed:2004 ~horizon:2000
      [
        {
          Traffic.ts_tenant = Tenant.make ~priority:Tenant.High "gold";
          ts_process = Agrid_tenant.Arrivals.Poisson 0.002;
        };
        {
          Traffic.ts_tenant =
            Tenant.make ~priority:Tenant.Low ~energy_quota:200. "bronze";
          ts_process = Agrid_tenant.Arrivals.Poisson 0.002;
        };
      ]
  in
  let to_ = Traffic.run ~obs:tenant_sink traffic_spec in
  Fmt.pr "tenant: %d apps, %d steps, %d rounds, fairness gap %.3f@."
    (List.length to_.Traffic.apps) to_.Traffic.total_steps to_.Traffic.rounds
    to_.Traffic.fairness_gap;
  let oc = open_out "BENCH_obs.json" in
  output_string oc
    (Agrid_obs.Export.summary_json ~total_seconds:(Unix.gettimeofday () -. t0)
       ~sections:
         [
           ("campaign", campaign_sink);
           ("lagrange", lagrange_sink);
           ("serve", serve_sink);
           ("fleet", fleet_sink);
           ("trace", trace_sink);
           ("tenant", tenant_sink);
         ]
       sink);
  close_out oc;
  Fmt.pr "wrote BENCH_obs.json (%d spans, %d metrics; campaign section: %d spans, %d metrics; lagrange section: %d metrics; serve section: %d metrics; fleet section: %d metrics; trace section: %d metrics; tenant section: %d metrics)@."
    (Agrid_obs.Sink.n_spans sink) (Agrid_obs.Sink.n_metrics sink)
    (Agrid_obs.Sink.n_spans campaign_sink)
    (Agrid_obs.Sink.n_metrics campaign_sink)
    (Agrid_obs.Sink.n_metrics lagrange_sink)
    (Agrid_obs.Sink.n_metrics serve_sink)
    (Agrid_obs.Sink.n_metrics fleet_sink)
    (Agrid_obs.Sink.n_metrics trace_sink)
    (Agrid_obs.Sink.n_metrics tenant_sink)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let bechamel_suite config =
  section "Bechamel micro-benchmarks (one kernel per experiment family)";
  let open Bechamel in
  let open Toolkit in
  let open Agrid_workload in
  let spec = config.Config.spec in
  let workload = Workload.build spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  let slrh variant () =
    let params =
      {
        (Agrid_core.Slrh.default_params ~variant weights) with
        Agrid_core.Slrh.delta_t = config.Config.delta_t;
        horizon = config.Config.horizon;
      }
    in
    ignore (Agrid_core.Slrh.run params workload)
  in
  let tests =
    [
      (* Tables 1-2 are constants; their kernel is grid construction *)
      Test.make ~name:"table12/grid_of_case"
        (Staged.stage (fun () -> ignore (Agrid_platform.Grid.of_case Agrid_platform.Grid.A)));
      (* Table 3 kernel: min-ratio scan of one ETC *)
      Test.make ~name:"table3/min_ratios"
        (Staged.stage (fun () ->
             ignore (Agrid_core.Upper_bound.min_ratios (Workload.etc workload))));
      (* Table 4 kernel: full upper-bound computation *)
      Test.make ~name:"table4/upper_bound"
        (Staged.stage (fun () ->
             ignore
               (Agrid_core.Upper_bound.compute ~etc:(Workload.etc workload)
                  ~grid:(Workload.grid workload) ~tau_seconds:spec.Spec.tau_seconds)));
      (* Figure 2 kernel: one SLRH-1 run (delta_t default) *)
      Test.make ~name:"figure2/slrh1_run" (Staged.stage (slrh Agrid_core.Slrh.V1));
      (* Figures 4-7 kernels: the three heuristics under comparison *)
      Test.make ~name:"figure4-7/slrh3_run" (Staged.stage (slrh Agrid_core.Slrh.V3));
      Test.make ~name:"figure4-7/maxmax_run"
        (Staged.stage (fun () ->
             ignore
               (Agrid_baselines.Maxmax.run (Agrid_baselines.Maxmax.default_params weights)
                  workload)));
      Test.make ~name:"calibration/greedy_mct"
        (Staged.stage (fun () -> ignore (Agrid_baselines.Greedy.run workload)));
      (* workload generation kernels *)
      Test.make ~name:"workload/build"
        (Staged.stage (fun () ->
             ignore
               (Workload.build spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A)));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"agrid" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ v ] -> Fmt.str "%.3f ms" (v /. 1e6)
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> Fmt.str "%.4f" r | None -> "-"
      in
      rows := [ name; est; r2 ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Fmt.pr "%a@." Table.pp
    (Table.make ~title:"Per-iteration cost (OLS on monotonic clock)"
       ~columns:[ "kernel"; "time/run"; "r^2" ] ~rows)

(* ------------------------------------------------------------------ *)

let () =
  let options = parse_options () in
  let config = config_of options in
  Fmt.pr "agrid reproduction bench — %a@." Config.pp config;
  let t0 = Unix.gettimeofday () in
  if options.obs_only then begin
    run_obs_profile config ~t0;
    exit 0
  end;
  run_tables config;
  if not options.skip_figures then begin
    run_figure2 config;
    ignore (run_evaluation_figures config);
    run_slrh2_check config
  end;
  report_tau_calibration config;
  comm_energy_share config;
  ablation_horizon config;
  ablation_feasibility_mode config;
  ablation_maxmax_tau_gate config;
  ablation_aet_sign config;
  ablation_machine_order config;
  ablation_adaptive config;
  ablation_classical_baselines config;
  ablation_robustness config;
  ablation_dynamic config;
  if not options.skip_bechamel then bechamel_suite config;
  run_obs_profile config ~t0;
  Fmt.pr "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0)
