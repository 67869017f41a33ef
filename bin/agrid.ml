(* Command-line interface to the SLRH ad hoc grid resource manager.

     agrid run       — map one scenario with a chosen heuristic
     agrid tune      — (alpha, beta) weight search on one scenario
     agrid dynamic   — machine loss mid-run with on-the-fly rescheduling
     agrid churn     — scripted churn traces / Monte Carlo survivability
     agrid traffic   — continuous multi-tenant traffic: arrivals, quotas, DRR fairness
     agrid serve     — queued scheduling-job daemon (agrid-job/1 over stdin or a socket)
     agrid top       — live dashboard over a daemon's agrid-stats/1 endpoint
     agrid prof      — profile the SLRH hot paths (spans, metrics, snapshots)
     agrid tables    — regenerate paper Tables 1-4
     agrid figure2   — regenerate the paper's delta-T sweep
     agrid ub        — upper-bound details for one scenario
     agrid calibrate — tau calibration via the greedy static heuristic
     agrid dot       — emit a generated DAG in Graphviz format *)

open Cmdliner
open Agrid_workload
open Agrid_sched
open Agrid_core

(* ---- shared arguments ---- *)

let seed_t =
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

let scale_t =
  Arg.(
    value
    & opt float 0.125
    & info [ "scale" ] ~docv:"FACTOR"
        ~doc:"Workload scale as a fraction of the paper's |T| = 1024 (tau and batteries scale along; 1.0 = full paper scale).")

let case_t =
  let parse = function
    | "A" | "a" -> Ok Agrid_platform.Grid.A
    | "B" | "b" -> Ok Agrid_platform.Grid.B
    | "C" | "c" -> Ok Agrid_platform.Grid.C
    | s -> Error (`Msg (Fmt.str "unknown case %S (expected A, B or C)" s))
  in
  let print ppf c = Fmt.string ppf (Agrid_platform.Grid.case_name c) in
  Arg.(
    value
    & opt (conv (parse, print)) Agrid_platform.Grid.A
    & info [ "case" ] ~docv:"CASE" ~doc:"Grid configuration: A (2 fast + 2 slow), B, or C.")

let etc_t = Arg.(value & opt int 0 & info [ "etc" ] ~docv:"N" ~doc:"ETC matrix index.")
let dag_t = Arg.(value & opt int 0 & info [ "dag" ] ~docv:"N" ~doc:"DAG index.")

let alpha_t =
  Arg.(value & opt float 0.4 & info [ "alpha" ] ~docv:"A" ~doc:"T100 reward weight.")

let beta_t =
  Arg.(value & opt float 0.3 & info [ "beta" ] ~docv:"B" ~doc:"Energy penalty weight.")

let heuristic_t =
  let parse = function
    | "slrh1" | "slrh-1" -> Ok `Slrh1
    | "slrh2" | "slrh-2" -> Ok `Slrh2
    | "slrh3" | "slrh-3" -> Ok `Slrh3
    | "maxmax" | "max-max" -> Ok `Maxmax
    | "minmin" | "min-min" -> Ok `Minmin
    | "lrnn" -> Ok `Lrnn
    | "greedy" -> Ok `Greedy
    | "random" -> Ok `Random
    | s -> Error (`Msg (Fmt.str "unknown heuristic %S" s))
  in
  let print ppf h =
    Fmt.string ppf
      (match h with
      | `Slrh1 -> "slrh1" | `Slrh2 -> "slrh2" | `Slrh3 -> "slrh3"
      | `Maxmax -> "maxmax" | `Minmin -> "minmin" | `Lrnn -> "lrnn"
      | `Greedy -> "greedy" | `Random -> "random")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Slrh1
    & info [ "heuristic" ] ~docv:"NAME"
        ~doc:"One of slrh1, slrh2, slrh3, maxmax, minmin, lrnn, greedy, random.")

let delta_t_t =
  Arg.(value & opt int 10 & info [ "delta-t" ] ~docv:"CYCLES" ~doc:"SLRH timestep.")

let horizon_t =
  Arg.(value & opt int 100 & info [ "horizon" ] ~docv:"CYCLES" ~doc:"SLRH receding horizon.")

let mode_t =
  let parse s =
    match Slrh.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error (`Msg (Fmt.str "unknown mode %S (expected rescan or soa)" s))
  in
  let print ppf m = Fmt.string ppf (Slrh.mode_to_string m) in
  Arg.(
    value
    & opt (conv (parse, print)) `Soa
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"SLRH pool maintenance: 'soa' (default: flat preallocated arena with batch admission and scoring, walked in place; zero steady-state allocation) or 'rescan' (rebuild and re-score every pool every timestep into boxed lists — the differential oracle). Both modes make bit-identical decisions. A --ledger or --trace run takes the rescan walk whatever --mode says: it is the only walk that records decisions.")

let spec_of ~seed ~scale =
  if scale >= 1. then Spec.paper_scale ~seed () else Spec.scaled ~seed ~factor:scale ()

let workload_of ~seed ~scale ~etc ~dag ~case =
  Workload.build (spec_of ~seed ~scale) ~etc_index:etc ~dag_index:dag ~case

(* ---- online dual ascent (--scheduler adaptive-lagrange) ---- *)

let scheduler_t =
  Arg.(
    value
    & opt string "slrh"
    & info [ "scheduler" ] ~docv:"NAME"
        ~doc:"Weight policy for the SLRH variants: 'slrh' (constant Lagrangian weights — the paper's heuristic, the default) or 'adaptive-lagrange' (online dual ascent on the energy/AET multipliers during the run; tune with the --adapt-* options).")

let adapt_step_t =
  Arg.(
    value
    & opt float 0.5
    & info [ "adapt-step" ] ~docv:"C"
        ~doc:"Dual-ascent step constant: round k steps the multipliers by C/sqrt(k).")

let adapt_init_energy_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "adapt-init-energy" ] ~docv:"L"
        ~doc:"Initial energy multiplier (default: beta/alpha derived from the weights).")

let adapt_init_aet_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "adapt-init-aet" ] ~docv:"L"
        ~doc:"Initial AET multiplier (default: gamma/alpha derived from the weights).")

let adapt_prob_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "adapt-prob" ] ~docv:"P"
        ~doc:"Chance-constrained feasibility: inflate energy-admission bounds by the Gaussian margin 1 + Phi^-1(P) * sigma so they hold with service probability ~P under --adapt-sigma relative estimation error (default: conservative bounds, no margin).")

let adapt_sigma_t =
  Arg.(
    value
    & opt float 0.1
    & info [ "adapt-sigma" ] ~docv:"S"
        ~doc:"Relative estimation error assumed by the --adapt-prob margin.")

(* The six scheduler flags bundled into one term; commands validate the
   bundle with [adapt_spec_or_die] so every bad knob is a one-line
   stderr message and exit 2, like the other argument errors. *)
let adapt_opts_t =
  let combine scheduler step_c init_energy init_aet prob sigma =
    (scheduler, { Adapt.step_c; init_energy; init_aet; prob; sigma })
  in
  Term.(
    const combine $ scheduler_t $ adapt_step_t $ adapt_init_energy_t
    $ adapt_init_aet_t $ adapt_prob_t $ adapt_sigma_t)

let adapt_spec_or_die ~cmd (scheduler, spec) =
  match scheduler with
  | "slrh" -> None
  | "adaptive-lagrange" -> (
      match Adapt.validate_spec spec with
      | Ok () -> Some spec
      | Error msg ->
          Fmt.epr "agrid %s: adaptive-lagrange: %s@." cmd msg;
          exit 2)
  | s ->
      Fmt.epr "agrid %s: unknown scheduler %S (expected slrh or adaptive-lagrange)@."
        cmd s;
      exit 2

(* Attach a fresh controller (and the spec's implied feasibility mode) to
   SLRH params; [None] leaves the run bit-identical to the constant-weight
   scheduler. *)
let with_adapt params = function
  | None -> params
  | Some spec ->
      {
        params with
        Slrh.adapt = Some (Adapt.create spec params.Slrh.weights);
        feas_mode = Adapt.feas_mode spec;
      }

(* ---- telemetry plumbing shared by run / dynamic / churn / prof ---- *)

let obs_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs" ] ~docv:"FILE"
        ~doc:"Write telemetry (span timings, metrics, per-timestep snapshots) as JSONL (SLRH paths only).")

let ledger_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Write the decision ledger (per-candidate rejection reasons, commit score decompositions, idle causes) as JSONL, for `agrid explain` and `agrid ledger-diff` (SLRH paths only). A ledger run takes the rescan walk whatever --mode says.")

(* An active sink when telemetry or a decision ledger was requested, the
   inert no-op otherwise. *)
let sink_for ?(stride = 1) ?(ledger = false) obs_file =
  if obs_file = None && not ledger then Agrid_obs.Sink.noop
  else Agrid_obs.Sink.create ~stride ~ledger ()

(* Artefact writes fail on user-supplied paths (unwritable directory,
   ENOSPC); report one line on stderr and exit 2 instead of dying with a
   bare Sys_error backtrace. *)
let write_or_die ~what f =
  try f () with
  | Sys_error msg | Unix.Unix_error (_, _, msg) ->
      Fmt.epr "agrid: cannot write %s: %s@." what msg;
      exit 2

let write_obs obs_file sink =
  match obs_file with
  | None -> ()
  | Some path ->
      write_or_die ~what:"telemetry JSONL" (fun () ->
          Agrid_obs.Export.write_jsonl path sink);
      Fmt.pr "obs: %d spans, %d metrics, %d snapshots -> %s@."
        (Agrid_obs.Sink.n_spans sink) (Agrid_obs.Sink.n_metrics sink)
        (Agrid_obs.Sink.n_snapshots sink) path

let write_ledger ledger_file sink =
  match (ledger_file, Agrid_obs.Sink.ledger sink) with
  | None, _ | _, None -> ()
  | Some path, Some led ->
      write_or_die ~what:"decision-ledger JSONL" (fun () ->
          Agrid_obs.Ledger.write_jsonl path led);
      Fmt.pr "ledger: %d entries -> %s@." (Agrid_obs.Ledger.length led) path

let load_ledger path =
  try Ok (Agrid_obs.Ledger.load_jsonl path) with
  | Invalid_argument msg -> Error msg
  | Sys_error msg -> Error msg

(* ---- run ---- *)

(* ASCII Gantt of a finished schedule: one lane per machine execution slot
   ('P' primary, 's' secondary) and one per communication direction ('x'). *)
let print_gantt schedule =
  let wl = Schedule.workload schedule in
  let m = Workload.n_machines wl in
  let exec_lane j =
    let intervals = ref [] in
    Array.iter
      (fun (p : Schedule.placement) ->
        if p.Schedule.machine = j then
          intervals :=
            ( p.Schedule.start,
              p.Schedule.stop,
              if Version.is_primary p.Schedule.version then 'P' else 's' )
            :: !intervals)
      (Schedule.placements schedule);
    Agrid_report.Gantt.lane ~name:(Fmt.str "machine %d exec" j) !intervals
  in
  let channel_lane j ~out =
    let intervals = ref [] in
    Array.iter
      (fun (tr : Schedule.transfer) ->
        let machine = if out then tr.Schedule.src else tr.Schedule.dst in
        if machine = j then
          intervals := (tr.Schedule.start, tr.Schedule.stop, 'x') :: !intervals)
      (Schedule.transfers schedule);
    Agrid_report.Gantt.lane
      ~name:(Fmt.str "machine %d %s" j (if out then "out" else "in"))
      !intervals
  in
  let lanes =
    List.concat_map
      (fun j -> [ exec_lane j; channel_lane j ~out:true; channel_lane j ~out:false ])
      (List.init m Fun.id)
  in
  Fmt.pr "%a@." (Agrid_report.Gantt.pp ~width:72)
    (Agrid_report.Gantt.make ~title:"schedule (P primary, s secondary, x transfer)" lanes)

let run_cmd =
  let action seed scale case etc dag heuristic alpha beta delta_t horizon mode adapt_opts gantt trace_file obs_file ledger_file =
    let adapt_spec = adapt_spec_or_die ~cmd:"run" adapt_opts in
    let slrh_only what =
      Fmt.epr "agrid run: %s applies to the SLRH variants only@." what;
      exit 2
    in
    (match heuristic with
    | `Slrh1 | `Slrh2 | `Slrh3 -> ()
    | `Maxmax | `Minmin | `Lrnn | `Greedy | `Random ->
        if adapt_spec <> None then slrh_only "--scheduler adaptive-lagrange";
        if trace_file <> None then slrh_only "--trace";
        if ledger_file <> None then slrh_only "--ledger";
        if obs_file <> None then slrh_only "--obs");
    let workload = workload_of ~seed ~scale ~etc ~dag ~case in
    let weights = Objective.make_weights ~alpha ~beta in
    Fmt.pr "%a@." Workload.pp workload;
    (* the trace is a view of the ledger, so --trace attaches one too *)
    let sink = sink_for ~ledger:(ledger_file <> None || trace_file <> None) obs_file in
    let schedule, wall =
      match heuristic with
      | (`Slrh1 | `Slrh2 | `Slrh3) as h ->
          let variant =
            match h with `Slrh1 -> Slrh.V1 | `Slrh2 -> Slrh.V2 | `Slrh3 -> Slrh.V3
          in
          let params =
            with_adapt
              {
                (Slrh.default_params ~variant weights) with
                Slrh.delta_t;
                horizon;
                mode;
                obs = sink;
              }
              adapt_spec
          in
          let o = Slrh.run params workload in
          Fmt.pr "%s: %a@." (Slrh.variant_to_string variant) Slrh.pp_outcome o;
          (o.Slrh.schedule, o.Slrh.wall_seconds)
      | `Maxmax ->
          let o =
            Agrid_baselines.Maxmax.run (Agrid_baselines.Maxmax.default_params weights) workload
          in
          Fmt.pr "Max-Max: %a@." Agrid_baselines.Maxmax.pp_outcome o;
          (o.Agrid_baselines.Maxmax.schedule, o.Agrid_baselines.Maxmax.wall_seconds)
      | `Minmin ->
          let o = Agrid_baselines.Minmin.run workload in
          Fmt.pr "Min-Min: %a@." Agrid_baselines.Minmin.pp_outcome o;
          (o.Agrid_baselines.Minmin.schedule, o.Agrid_baselines.Minmin.wall_seconds)
      | `Lrnn ->
          let o = Agrid_lrnn.Lrnn.run workload in
          Fmt.pr "LRNN: %a@." Agrid_lrnn.Lrnn.pp_outcome o;
          (o.Agrid_lrnn.Lrnn.schedule, o.Agrid_lrnn.Lrnn.wall_seconds)
      | `Greedy ->
          let o = Agrid_baselines.Greedy.run workload in
          Fmt.pr "Greedy MCT: makespan=%d cycles@." o.Agrid_baselines.Greedy.makespan;
          (o.Agrid_baselines.Greedy.schedule, o.Agrid_baselines.Greedy.wall_seconds)
      | `Random ->
          let o =
            Agrid_baselines.Random_mapper.run (Agrid_prng.Splitmix64.of_int seed) workload
          in
          (o.Agrid_baselines.Random_mapper.schedule, o.Agrid_baselines.Random_mapper.wall_seconds)
    in
    let r = Validate.check schedule in
    Fmt.pr "validation: %a@." Validate.pp_report r;
    Fmt.pr "wall: %.4f s@." wall;
    if gantt then print_gantt schedule;
    (match (trace_file, Agrid_obs.Sink.ledger sink) with
    | Some path, Some led ->
        let t = Trace.of_ledger led in
        write_or_die ~what:"trace CSV" (fun () ->
            Agrid_report.Csv.write_file path ~header:Trace.csv_header (Trace.csv_rows t));
        Fmt.pr "trace: %a -> %s@." Trace.pp_summary (Trace.summarize t) path
    | _ -> ());
    write_obs obs_file sink;
    write_ledger ledger_file sink;
    if Validate.feasible r then 0 else 1
  in
  let gantt_t = Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.") in
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Write the SLRH decision trace as CSV (SLRH variants only). The trace is a view of the decision ledger, so this attaches one and costs what --ledger costs: the run takes the rescan walk whatever --mode says.")
  in
  let term =
    Term.(
      const action $ seed_t $ scale_t $ case_t $ etc_t $ dag_t $ heuristic_t $ alpha_t
      $ beta_t $ delta_t_t $ horizon_t $ mode_t $ adapt_opts_t $ gantt_t $ trace_t
      $ obs_t $ ledger_t)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Map one scenario with a chosen heuristic and validate the result.")
    term

(* ---- tune ---- *)

let tune_cmd =
  let action seed scale case etc dag heuristic adaptive =
    let workload = workload_of ~seed ~scale ~etc ~dag ~case in
    let runner =
      match heuristic with
      | `Slrh1 -> Agrid_tuner.Weight_search.slrh_runner Slrh.V1
      | `Slrh2 -> Agrid_tuner.Weight_search.slrh_runner Slrh.V2
      | `Slrh3 -> Agrid_tuner.Weight_search.slrh_runner Slrh.V3
      | `Maxmax -> Agrid_tuner.Weight_search.maxmax_runner
      | `Minmin | `Lrnn | `Greedy | `Random ->
          Fmt.epr "tune: only slrh1/slrh2/slrh3/maxmax are tunable@.";
          exit 2
    in
    if adaptive then begin
      let r = Agrid_tuner.Adaptive.tune runner workload in
      List.iter (fun s -> Fmt.pr "%a@." Agrid_tuner.Adaptive.pp_step s) r.Agrid_tuner.Adaptive.trace;
      match r.Agrid_tuner.Adaptive.best with
      | Some b ->
          Fmt.pr "best: %a@." Agrid_tuner.Weight_search.pp_run_result b;
          0
      | None ->
          Fmt.pr "no feasible weight point found@.";
          1
    end
    else begin
      let r = Agrid_tuner.Weight_search.search runner workload in
      Fmt.pr "%d evaluations, %d feasible points@." r.Agrid_tuner.Weight_search.evaluations
        (List.length r.Agrid_tuner.Weight_search.feasible_points);
      match r.Agrid_tuner.Weight_search.best with
      | Some b ->
          Fmt.pr "best: %a@." Agrid_tuner.Weight_search.pp_run_result b;
          0
      | None ->
          Fmt.pr "no feasible weight point found@.";
          1
    end
  in
  let adaptive_t =
    Arg.(value & flag & info [ "adaptive" ] ~doc:"Use adaptive multiplier adjustment instead of the grid search.")
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Search (alpha, beta) for the best feasible T100 on one scenario.")
    Term.(const action $ seed_t $ scale_t $ case_t $ etc_t $ dag_t $ heuristic_t $ adaptive_t)

(* ---- dynamic ---- *)

(* One scripted churn run, shared by `dynamic` and `churn --events`:
   prints the trace, each applied event, the outcome and every audit
   violation, and hands back the outcome and its audit for the caller's
   exit rule. *)
let run_scripted ~policy params workload events =
  let o = Dynamic.run_churn ~policy params workload events in
  Fmt.pr "trace: %s@." (Agrid_churn.Event.trace_to_string events);
  List.iter
    (fun a -> Fmt.pr "  %a@." Agrid_churn.Engine.pp_applied a)
    o.Agrid_churn.Engine.applied;
  Fmt.pr "%a@." Agrid_churn.Engine.pp_outcome o;
  let audit = Agrid_churn.Engine.audit o in
  List.iter (fun v -> Fmt.pr "audit: %s@." v) audit;
  (o, audit)

let dynamic_cmd =
  let action seed scale etc dag alpha beta machine at_fraction adapt_opts obs_file =
    let adapt_spec = adapt_spec_or_die ~cmd:"dynamic" adapt_opts in
    let workload = workload_of ~seed ~scale ~etc ~dag ~case:Agrid_platform.Grid.A in
    let weights = Objective.make_weights ~alpha ~beta in
    let at = int_of_float (float_of_int (Workload.tau workload) *. at_fraction) in
    let sink = sink_for obs_file in
    let params =
      with_adapt { (Slrh.default_params weights) with Slrh.obs = sink } adapt_spec
    in
    let o, _audit =
      run_scripted ~policy:Agrid_churn.Retry.default params workload
        [ { Agrid_churn.Event.at; kind = Agrid_churn.Event.Leave machine } ]
    in
    (* stricter than churn's audit rule: the final schedule must also be
       complete and end within tau *)
    let r = Validate.check o.Agrid_churn.Engine.schedule in
    Fmt.pr "validation: %a@." Validate.pp_report r;
    write_obs obs_file sink;
    if Validate.feasible r && o.Agrid_churn.Engine.ledger_energy_ok then 0 else 1
  in
  let machine_t =
    Arg.(value & opt int 3 & info [ "machine" ] ~docv:"J" ~doc:"Machine lost (Case A indexing: 0-1 fast, 2-3 slow).")
  in
  let at_t =
    Arg.(value & opt float 0.25 & info [ "at" ] ~docv:"FRACTION" ~doc:"Loss instant as a fraction of tau.")
  in
  Cmd.v
    (Cmd.info "dynamic" ~doc:"Lose a machine mid-run and reschedule on-the-fly (extension).")
    Term.(
      const action $ seed_t $ scale_t $ etc_t $ dag_t $ alpha_t $ beta_t $ machine_t
      $ at_t $ adapt_opts_t $ obs_t)

(* ---- tables ---- *)

let config_of_options seed scale etcs dags =
  let open Agrid_exper in
  let base = Config.default ~seed () in
  { base with Config.spec = spec_of ~seed ~scale; n_etcs = etcs; n_dags = dags }

let tables_cmd =
  let action seed scale etcs dags =
    let open Agrid_exper in
    let config = config_of_options seed scale etcs dags in
    Fmt.pr "%a@.@." Agrid_report.Table.pp (Experiments.table1 ());
    Fmt.pr "%a@.@." Agrid_report.Table.pp (Experiments.table2 ());
    Fmt.pr "%a@.@." Agrid_report.Table.pp (Experiments.table3 config);
    Fmt.pr "%a@." Agrid_report.Table.pp (Experiments.table4 config);
    0
  in
  let etcs_t = Arg.(value & opt int 10 & info [ "etcs" ] ~docv:"N" ~doc:"Number of ETC matrices.") in
  let dags_t = Arg.(value & opt int 3 & info [ "dags" ] ~docv:"N" ~doc:"Number of DAGs.") in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate paper Tables 1-4.")
    Term.(const action $ seed_t $ scale_t $ etcs_t $ dags_t)

(* ---- figure2 ---- *)

let figure2_cmd =
  let action seed scale =
    let open Agrid_exper in
    let config = config_of_options seed scale 1 2 in
    Fmt.pr "%a@." Agrid_report.Series.pp (Experiments.figure2 config);
    0
  in
  Cmd.v
    (Cmd.info "figure2" ~doc:"Regenerate the paper's delta-T sweep (Figure 2).")
    Term.(const action $ seed_t $ scale_t)

(* ---- ub ---- *)

let ub_cmd =
  let action seed scale case etc =
    let spec = spec_of ~seed ~scale in
    let etc_full = Workload.etc_for_spec spec ~etc_index:etc in
    let etc_case = Agrid_etc.Etc.for_case etc_full case in
    let grid = Agrid_platform.Grid.of_case ~battery_scale:spec.Spec.battery_scale case in
    let r = Upper_bound.compute ~etc:etc_case ~grid ~tau_seconds:spec.Spec.tau_seconds in
    Fmt.pr "%s, ETC %d: %a@." (Agrid_platform.Grid.case_name case) etc Upper_bound.pp r;
    Array.iteri
      (fun j mr -> Fmt.pr "  MR(%d) = %.3f@." j mr)
      (Upper_bound.min_ratios etc_case);
    0
  in
  Cmd.v
    (Cmd.info "ub" ~doc:"Equivalent-computing-cycles upper bound for one scenario.")
    Term.(const action $ seed_t $ scale_t $ case_t $ etc_t)

(* ---- calibrate ---- *)

let calibrate_cmd =
  let action seed scale slack probes =
    let spec = spec_of ~seed ~scale in
    let tau = Agrid_baselines.Calibrate.tau_cycles ~slack ~n_probes:probes spec in
    Fmt.pr "spec tau: %d cycles@." (Spec.tau_cycles spec);
    Fmt.pr "greedy-calibrated tau (slack %.2f, %d probes): %d cycles@." slack probes tau;
    0
  in
  let slack_t = Arg.(value & opt float 1.0 & info [ "slack" ] ~docv:"S" ~doc:"Slack factor.") in
  let probes_t = Arg.(value & opt int 3 & info [ "probes" ] ~docv:"N" ~doc:"Scenarios probed.") in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Calibrate tau from greedy static heuristic makespans (paper method).")
    Term.(const action $ seed_t $ scale_t $ slack_t $ probes_t)

(* ---- export / import ---- *)

let export_cmd =
  let action seed scale case etc dag out =
    let spec = spec_of ~seed ~scale in
    (match out with
    | Some path ->
        write_or_die ~what:"scenario file" (fun () ->
            Serialize.save_file path spec ~etc_index:etc ~dag_index:dag ~case);
        Fmt.pr "scenario written to %s@." path
    | None -> Fmt.pr "%s" (Serialize.to_string spec ~etc_index:etc ~dag_index:dag ~case));
    0
  in
  let out_t =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Pin a scenario's full artefacts to a portable text file.")
    Term.(const action $ seed_t $ scale_t $ case_t $ etc_t $ dag_t $ out_t)

let import_cmd =
  let action path alpha beta =
    let workload = Serialize.load_file path in
    Fmt.pr "loaded %a@." Workload.pp workload;
    let weights = Objective.make_weights ~alpha ~beta in
    let o = Slrh.run (Slrh.default_params weights) workload in
    Fmt.pr "SLRH-1: %a@." Slrh.pp_outcome o;
    let r = Validate.check o.Slrh.schedule in
    Fmt.pr "validation: %a@." Validate.pp_report r;
    if Validate.feasible r then 0 else 1
  in
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Scenario file from `agrid export`.")
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Load a pinned scenario file and map it with SLRH-1.")
    Term.(const action $ path_t $ alpha_t $ beta_t)

(* ---- churn ---- *)

let churn_cmd =
  let action seed scale etc dag case alpha beta mode adapt_opts shards events mc intensities policy budget obs_file ledger_file =
    let adapt_spec = adapt_spec_or_die ~cmd:"churn" adapt_opts in
    let weights = Objective.make_weights ~alpha ~beta in
    let policy =
      Agrid_churn.Retry.make
        ~timing:
          (match policy with
          | `Immediate -> Agrid_churn.Retry.Immediate
          | `Defer -> Agrid_churn.Retry.Defer_to_rejoin)
        ?budget ()
    in
    match (events, mc) with
    | Some _, Some _ ->
        Fmt.epr "agrid churn: --events and --mc are mutually exclusive@.";
        2
    | None, None ->
        Fmt.epr "agrid churn: pass a scripted trace (--events) or a campaign (--mc N)@.";
        2
    | Some trace, None ->
        let workload = workload_of ~seed ~scale ~etc ~dag ~case in
        let events = Agrid_churn.Event.parse_trace trace in
        let sink = sink_for ~ledger:(ledger_file <> None) obs_file in
        let params =
          with_adapt
            { (Slrh.default_params weights) with Slrh.mode; obs = sink }
            adapt_spec
        in
        let o, audit = run_scripted ~policy params workload events in
        write_obs obs_file sink;
        write_ledger ledger_file sink;
        if audit = [] && o.Agrid_churn.Engine.ledger_energy_ok then 0 else 1
    | None, Some _ when ledger_file <> None ->
        (* a campaign runs many replicates and keeps no decision ledger *)
        Fmt.epr "agrid churn: --ledger applies to a scripted trace (--events) only@.";
        2
    | None, Some n ->
        let open Agrid_exper in
        let config = config_of_options seed scale 1 1 in
        let sink = sink_for obs_file in
        let levels =
          Campaign.run ~obs:sink ~weights ~policy ?adapt:adapt_spec ?intensities
            ~replicates:n ?shards ~seed config
        in
        Fmt.pr "%a@." Agrid_report.Table.pp (Campaign.table levels);
        write_obs obs_file sink;
        0
  in
  let events_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"TRACE"
          ~doc:"Scripted churn trace, e.g. 'leave\\@120:1,shock\\@200:0:0.5,rejoin\\@400:1'. Event kinds: leave\\@AT:M, rejoin\\@AT:M, shock\\@AT:M:FRACTION, degrade\\@AT:M:FACTOR.")
  in
  let mc_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "mc" ] ~docv:"N"
          ~doc:"Monte Carlo campaign with N replicates per churn intensity level.")
  in
  let intensities_t =
    let parse s =
      try
        Ok
          (String.split_on_char ',' s
          |> List.filter_map (fun p ->
                 let p = String.trim p in
                 if p = "" then None else Some (float_of_string p)))
      with Failure _ -> Error (`Msg (Fmt.str "bad intensity list %S" s))
    in
    let print ppf l = Fmt.(list ~sep:comma float) ppf l in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "intensities" ] ~docv:"X,Y,..."
          ~doc:"Churn intensities (expected leaves per machine over tau); default 0,0.5,1,2,4.")
  in
  let policy_t =
    let parse = function
      | "immediate" -> Ok `Immediate
      | "defer" | "defer-to-rejoin" -> Ok `Defer
      | s -> Error (`Msg (Fmt.str "unknown retry policy %S (expected immediate or defer)" s))
    in
    let print ppf p = Fmt.string ppf (match p with `Immediate -> "immediate" | `Defer -> "defer") in
    Arg.(
      value
      & opt (conv (parse, print)) `Immediate
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Re-execution policy for discarded work: immediate remap or defer until a machine rejoins.")
  in
  let budget_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"K"
          ~doc:"Per-subtask retry budget: after K discards a subtask is abandoned (default: unbounded).")
  in
  let shards_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:"With --mc: split each level's replicates into N blocks run on worker domains (default: one per available domain). Campaign aggregates are identical for every N.")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Drive SLRH through a scripted churn trace, or run a Monte Carlo survivability campaign (extension).")
    Term.(
      const action $ seed_t $ scale_t $ etc_t $ dag_t $ case_t $ alpha_t $ beta_t
      $ mode_t $ adapt_opts_t $ shards_t $ events_t $ mc_t $ intensities_t $ policy_t
      $ budget_t $ obs_t $ ledger_t)

(* ---- prof ---- *)

(* [counts_only] drops every wall-clock column, leaving a deterministic
   table — what the golden CLI snapshot pins. *)
let span_table ?(counts_only = false) sink =
  if counts_only then
    Agrid_report.Table.make ~title:"span counts"
      ~columns:[ "span"; "count" ]
      ~rows:
        (List.map
           (fun (s : Agrid_obs.Span.stats) ->
             [ s.Agrid_obs.Span.name; string_of_int s.Agrid_obs.Span.count ])
           (Agrid_obs.Sink.span_stats sink))
  else
    Agrid_report.Table.make ~title:"span timings (wall seconds)"
      ~columns:[ "span"; "count"; "total"; "mean"; "p50"; "p95"; "p99"; "max" ]
      ~rows:
        (List.map
           (fun (s : Agrid_obs.Span.stats) ->
             [
               s.Agrid_obs.Span.name;
               string_of_int s.Agrid_obs.Span.count;
               Fmt.str "%.4f" s.Agrid_obs.Span.total_s;
               Fmt.str "%.6f" s.Agrid_obs.Span.mean_s;
               Fmt.str "%.6f" s.Agrid_obs.Span.p50_s;
               Fmt.str "%.6f" s.Agrid_obs.Span.p95_s;
               Fmt.str "%.6f" s.Agrid_obs.Span.p99_s;
               Fmt.str "%.6f" s.Agrid_obs.Span.max_s;
             ])
           (Agrid_obs.Sink.span_stats sink))

let metric_table sink =
  Agrid_report.Table.make ~title:"metrics"
    ~columns:[ "metric"; "kind"; "value" ]
    ~rows:
      (List.map
         (fun (name, m) ->
           match m with
           | Agrid_obs.Registry.Counter c -> [ name; "counter"; string_of_int c ]
           | Agrid_obs.Registry.Gauge g -> [ name; "gauge"; Fmt.str "%.4g" g ]
           | Agrid_obs.Registry.Histogram h ->
               [
                 name;
                 "histogram";
                 Fmt.str "n=%d mean=%.4g p95=%.4g" (Agrid_obs.Hist.count h)
                   (Agrid_obs.Hist.mean h)
                   (Agrid_obs.Hist.quantile h 0.95);
               ])
         (Agrid_obs.Sink.metrics sink))

let prof_cmd =
  let action seed scale case etc dag heuristic alpha beta delta_t horizon mode events stride out csv counts_only =
    let variant =
      match heuristic with
      | `Slrh1 -> Slrh.V1
      | `Slrh2 -> Slrh.V2
      | `Slrh3 -> Slrh.V3
      | `Maxmax | `Minmin | `Lrnn | `Greedy | `Random ->
          Fmt.epr "agrid prof: only the SLRH variants are instrumented@.";
          exit 2
    in
    if stride <= 0 then begin
      Fmt.epr "agrid prof: --stride must be positive@.";
      exit 2
    end;
    let workload = workload_of ~seed ~scale ~etc ~dag ~case in
    let weights = Objective.make_weights ~alpha ~beta in
    let sink = Agrid_obs.Sink.create ~stride () in
    let params =
      {
        (Slrh.default_params ~variant weights) with
        Slrh.delta_t;
        horizon;
        mode;
        obs = sink;
      }
    in
    (match events with
    | None ->
        let o = Slrh.run params workload in
        if counts_only then
          (* same outcome line minus the wall-clock field: deterministic,
             golden-snapshot friendly *)
          Fmt.pr "%s (%s): %a completed=%b clock=%d [%a]@."
            (Slrh.variant_to_string variant)
            (Slrh.mode_to_string mode) Schedule.pp o.Slrh.schedule
            o.Slrh.completed o.Slrh.final_clock Slrh.pp_stats o.Slrh.stats
        else
          Fmt.pr "%s (%s): %a@."
            (Slrh.variant_to_string variant)
            (Slrh.mode_to_string mode) Slrh.pp_outcome o
    | Some trace ->
        let evs = Agrid_churn.Event.parse_trace trace in
        let o = Dynamic.run_churn params workload evs in
        Fmt.pr "trace: %s@." (Agrid_churn.Event.trace_to_string evs);
        Fmt.pr "%a@." Agrid_churn.Engine.pp_outcome o);
    Fmt.pr "%a@.@." Agrid_report.Table.pp (span_table ~counts_only sink);
    Fmt.pr "%a@." Agrid_report.Table.pp (metric_table sink);
    Fmt.pr "snapshots: %d retained (%d dropped), stride %d@."
      (Agrid_obs.Sink.n_snapshots sink)
      (Agrid_obs.Sink.snapshots_dropped sink)
      stride;
    (match out with
    | None -> ()
    | Some path ->
        write_or_die ~what:"telemetry JSONL" (fun () ->
            Agrid_obs.Export.write_jsonl path sink);
        Fmt.pr "jsonl -> %s@." path);
    (match csv with
    | None -> ()
    | Some prefix ->
        let files =
          write_or_die ~what:"telemetry CSV" (fun () ->
              Agrid_obs.Export.write_csv_files ~prefix sink)
        in
        List.iter (fun f -> Fmt.pr "csv -> %s@." f) files);
    0
  in
  let events_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"TRACE"
          ~doc:"Profile a churn run over this scripted trace instead of a static run (same syntax as `agrid churn --events`).")
  in
  let stride_t =
    Arg.(
      value
      & opt int 1
      & info [ "stride" ] ~docv:"N" ~doc:"Take a scheduler snapshot every N timesteps.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the full telemetry as JSONL.")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PREFIX"
          ~doc:"Write <PREFIX>_metrics.csv, <PREFIX>_spans.csv and <PREFIX>_snapshots.csv.")
  in
  let counts_only_t =
    Arg.(
      value & flag
      & info [ "counts-only" ]
          ~doc:"Omit every wall-clock column (span timings, outcome wall seconds), leaving output that is a pure function of the arguments — what the golden CLI snapshots pin.")
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:"Profile the SLRH hot paths: span timings, metrics and per-timestep snapshots (extension).")
    Term.(
      const action $ seed_t $ scale_t $ case_t $ etc_t $ dag_t $ heuristic_t $ alpha_t
      $ beta_t $ delta_t_t $ horizon_t $ mode_t $ events_t $ stride_t $ out_t $ csv_t
      $ counts_only_t)

(* ---- explain ---- *)

let ledger_pos_t ~docv ~doc idx =
  Arg.(required & pos idx (some string) None & info [] ~docv ~doc)

let explain_cmd =
  let action path task machine clock round =
    match load_ledger path with
    | Error msg ->
        Fmt.epr "agrid explain: %s@." msg;
        2
    | Ok led -> (
        match (task, machine, clock, round) with
        | Some task, None, None, None -> (
            match Agrid_obs.Ledger.explain_task led ~task with
            | Some report ->
                Fmt.pr "%s@." report;
                0
            | None ->
                Fmt.pr "subtask %d: no record in this ledger@." task;
                1)
        | None, Some machine, Some clock, None -> (
            match Agrid_obs.Ledger.explain_idle led ~machine ~clock with
            | Some report ->
                Fmt.pr "%s@." report;
                0
            | None ->
                Fmt.pr "machine %d at clock %d: no record in this ledger@." machine clock;
                1)
        | None, None, None, Some round -> (
            match Agrid_obs.Ledger.explain_multiplier led ~round with
            | Some report ->
                Fmt.pr "%s@." report;
                0
            | None ->
                Fmt.pr "dual round %d: no record in this ledger@." round;
                1)
        | _ ->
            Fmt.epr
              "agrid explain: ask one question — --task N (why did this subtask map \
               where it did?), --machine J --clock K (why was this machine idle \
               there?), or --round R (why did dual round R move the multipliers?)@.";
            2)
  in
  let task_t =
    Arg.(value & opt (some int) None & info [ "task" ] ~docv:"N" ~doc:"Explain subtask N's mapping decision.")
  in
  let machine_t =
    Arg.(value & opt (some int) None & info [ "machine" ] ~docv:"J" ~doc:"With --clock: explain why machine J sat idle.")
  in
  let clock_t =
    Arg.(value & opt (some int) None & info [ "clock" ] ~docv:"K" ~doc:"With --machine: the timestep to explain.")
  in
  let round_t =
    Arg.(value & opt (some int) None & info [ "round" ] ~docv:"R" ~doc:"Explain dual-ascent round R: trigger, measured subgradients, step size and the weights before/after (adaptive-lagrange runs).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Answer mapping questions from a decision ledger (written by `agrid run --ledger` or `agrid churn --ledger`): why a subtask mapped where it did, why a machine sat idle at a timestep, or why a dual-ascent round moved the Lagrangian multipliers.")
    Term.(
      const action
      $ ledger_pos_t ~docv:"LEDGER" ~doc:"Decision-ledger JSONL file." 0
      $ task_t $ machine_t $ clock_t $ round_t)

(* ---- ledger-diff ---- *)

let ledger_diff_cmd =
  let action left right =
    match (load_ledger left, load_ledger right) with
    | Error msg, _ ->
        Fmt.epr "agrid ledger-diff: %s: %s@." left msg;
        2
    | _, Error msg ->
        Fmt.epr "agrid ledger-diff: %s: %s@." right msg;
        2
    | Ok l, Ok r -> (
        match Agrid_obs.Ledger.first_divergence l r with
        | None ->
            Fmt.pr "identical decision streams (%d decisions)@."
              (List.length (Agrid_obs.Ledger.decisions l));
            0
        | Some d ->
            Fmt.pr "%a@." Agrid_obs.Ledger.pp_divergence d;
            1)
  in
  Cmd.v
    (Cmd.info "ledger-diff"
       ~doc:"Localise where two runs' decision streams first part ways: reports the first divergent commit/idle decision with both sides' score decompositions. Exit 0 when identical, 1 on divergence.")
    Term.(
      const action
      $ ledger_pos_t ~docv:"LEFT" ~doc:"Baseline decision-ledger JSONL file." 0
      $ ledger_pos_t ~docv:"RIGHT" ~doc:"Decision-ledger JSONL file to compare." 1)

(* ---- trace ---- *)

let trace_lint_cmd =
  let action path =
    match
      try Ok (Agrid_report.Csv.read_file path) with
      | Sys_error msg | Invalid_argument msg -> Error msg
    with
    | Error msg ->
        Fmt.epr "agrid trace lint: %s@." msg;
        2
    | Ok [] ->
        Fmt.epr "agrid trace lint: %s is empty (expected a header row)@." path;
        2
    | Ok (header :: rows) ->
        if header <> Trace.csv_header then
          Fmt.pr "header mismatch:@.  expected %s@.  found    %s@."
            (String.concat "," Trace.csv_header)
            (String.concat "," header);
        let problems = Trace.lint_csv_rows rows in
        List.iter
          (fun (i, msg) ->
            (* +2: 1-based, counting the header line like an editor would *)
            Fmt.pr "%s:%d: %s@." path (i + 2) msg)
          problems;
        if header = Trace.csv_header && problems = [] then begin
          Fmt.pr "%s: %d rows, all well-formed@." path (List.length rows);
          0
        end
        else begin
          Fmt.pr "%s: %d of %d rows malformed@." path (List.length problems)
            (List.length rows);
          1
        end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Check an exported SLRH trace CSV (from `agrid run --trace`): reports every malformed row with its diagnostic instead of stopping at the first.")
    Term.(
      const action
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace CSV file."))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let trace_export_cmd =
  let action path out =
    match try Ok (read_lines path) with Sys_error msg -> Error msg with
    | Error msg ->
        Fmt.epr "agrid trace export: %s@." msg;
        2
    | Ok lines -> (
        match Agrid_obs.Trace.parse_jsonl lines with
        | Error msg ->
            Fmt.epr "agrid trace export: %s: %s@." path msg;
            2
        | Ok parsed -> (
            let doc = Agrid_obs.Trace.chrome_of_lines parsed in
            match out with
            | None ->
                print_string doc;
                print_newline ();
                0
            | Some target ->
                write_or_die ~what:"Chrome trace JSON" (fun () ->
                    let oc = open_out target in
                    Fun.protect
                      ~finally:(fun () -> close_out_noerr oc)
                      (fun () ->
                        output_string oc doc;
                        output_char oc '\n'));
                Fmt.pr "chrome trace -> %s@." target;
                0))
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace JSON here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Convert an agrid-trace/1 JSONL file (from `agrid serve --trace` or `agrid router --trace`) to Chrome trace-event JSON, loadable in chrome://tracing or Perfetto: an instant event per ring event and a complete span per job, with slow-job exemplar timelines on their own track.")
    Term.(
      const action
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"FILE" ~doc:"agrid-trace/1 JSONL file.")
      $ out_t)

let trace_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "trace")))) in
  Cmd.group ~default
    (Cmd.info "trace"
       ~doc:"Operate on exported traces: SLRH decision-trace CSVs (lint) and agrid-trace/1 request timelines (export).")
    [ trace_lint_cmd; trace_export_cmd ]

(* ---- top ---- *)

let top_cmd =
  let module Codec = Agrid_serve.Codec in
  let module Transport = Agrid_serve.Transport in
  let stats_request = "{\"schema\":\"agrid-job/1\",\"kind\":\"stats\"}" in
  let quantile_cell v =
    if Float.is_nan v then "-" else Fmt.str "%.1fms" (v *. 1000.)
  in
  let render ppf (s : Codec.stats_snapshot) =
    Fmt.pf ppf "agrid top — %s  up %.1fs  window %.0fs@." s.Codec.ss_role
      s.Codec.ss_uptime_s s.Codec.ss_window_s;
    Fmt.pf ppf "  queue %d  in-flight %d  %s %d  accepted %d  completed %d@."
      s.Codec.ss_queue_depth s.Codec.ss_in_flight
      (if s.Codec.ss_role = "router" then "backends" else "workers")
      s.Codec.ss_workers s.Codec.ss_accepted s.Codec.ss_completed;
    Fmt.pf ppf "  rolling: %.2f jobs/s  p50 %s  p95 %s  p99 %s@."
      s.Codec.ss_rate (quantile_cell s.Codec.ss_p50_s)
      (quantile_cell s.Codec.ss_p95_s)
      (quantile_cell s.Codec.ss_p99_s);
    Fmt.pf ppf "  trace ring: %d events (%d dropped), %d exemplars@."
      s.Codec.ss_trace_events s.Codec.ss_trace_dropped s.Codec.ss_trace_exemplars;
    if s.Codec.ss_backends <> [] then begin
      Fmt.pf ppf "  backends:@.";
      List.iter
        (fun (name, health, inflight) ->
          Fmt.pf ppf "    %-24s %-9s %d in flight@." name health inflight)
        s.Codec.ss_backends
    end
  in
  let action socket file interval once =
    match (socket, file) with
    | None, None ->
        Fmt.epr "agrid top: need --socket PATH (poll a daemon) or --file FILE (render a saved snapshot)@.";
        2
    | _, Some path -> (
        (* render one saved agrid-stats/1 line — the golden-snapshot path *)
        match
          try Ok (List.filter (fun l -> String.trim l <> "") (read_lines path))
          with Sys_error msg -> Error msg
        with
        | Error msg ->
            Fmt.epr "agrid top: %s@." msg;
            2
        | Ok [] ->
            Fmt.epr "agrid top: %s: no snapshot line@." path;
            2
        | Ok (line :: _) -> (
            match Codec.parse_stats line with
            | Error msg ->
                Fmt.epr "agrid top: %s: %s@." path msg;
                2
            | Ok s ->
                render Fmt.stdout s;
                0))
    | Some path, None ->
        if interval <= 0. then begin
          Fmt.epr "agrid top: --interval must be positive@.";
          2
        end
        else begin
          let stop_requested = Atomic.make false in
          let handler =
            Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)
          in
          Sys.set_signal Sys.sigint handler;
          Sys.set_signal Sys.sigterm handler;
          let poll () =
            match Transport.request ~path stats_request with
            | Error msg -> Error msg
            | Ok line -> Codec.parse_stats line
          in
          if once then begin
            match poll () with
            | Error msg ->
                Fmt.epr "agrid top: %s@." msg;
                2
            | Ok s ->
                render Fmt.stdout s;
                0
          end
          else begin
            let rec loop () =
              if Atomic.get stop_requested then 0
              else begin
                (match poll () with
                | Error msg -> Fmt.pr "agrid top: %s (retrying)@." msg
                | Ok s ->
                    (* clear the screen between refreshes, like top(1) *)
                    print_string "\027[2J\027[H";
                    render Fmt.stdout s);
                Fmt.flush Fmt.stdout ();
                (try Unix.sleepf interval with Unix.Unix_error _ -> ());
                loop ()
              end
            in
            loop ()
          end
        end
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of an `agrid serve` or `agrid router` daemon to poll.")
  in
  let file_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Render one saved agrid-stats/1 snapshot line instead of polling a socket.")
  in
  let interval_t =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period when polling (default 2).")
  in
  let once_t =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single snapshot and exit instead of refreshing.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live fleet introspection: poll a daemon's kind:\"stats\" endpoint and render a refreshing dashboard — rolling-window (not lifetime) completion rate and latency quantiles, queue depth, in-flight jobs, per-backend health and trace-ring occupancy.")
    Term.(const action $ socket_t $ file_t $ interval_t $ once_t)

(* ---- serve ---- *)

(* Shared by serve/router: build an optional trace collector and dump its
   agrid-trace/1 JSONL at exit (stderr summary keeps stdout protocol-clean). *)
let tracer_for ~nonce trace_out =
  Option.map (fun _ -> Agrid_obs.Trace.create ~nonce ()) trace_out

let write_trace ~cmd trace_out tracer =
  match (trace_out, tracer) with
  | Some path, Some tr ->
      write_or_die ~what:"trace JSONL" (fun () ->
          Agrid_obs.Trace.write_jsonl path tr);
      Fmt.epr "agrid %s: trace: %d events (%d dropped), %d exemplars -> %s@." cmd
        (Agrid_obs.Trace.length tr) (Agrid_obs.Trace.dropped tr)
        (List.length (Agrid_obs.Trace.exemplars tr))
        path
  | _ -> ()

let trace_out_t ~daemon =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          (Fmt.str
             "Enable per-request distributed tracing and write the event ring \
              and slow-job exemplars as agrid-trace/1 JSONL to FILE at exit \
              (convert with `agrid trace export`). %s"
             daemon))

(* ", VmHWM N kB, VmRSS N kB" from the daemon's own /proc/self/status,
   "" where that cannot be read *)
let vm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> ""
  | text ->
      String.split_on_char '\n' text
      |> List.filter_map (fun line ->
             match Scanf.sscanf line "%s@: %d kB" (fun key kb -> (key, kb)) with
             | (("VmHWM" | "VmRSS") as key), kb -> Some (Fmt.str ", %s %d kB" key kb)
             | _ -> None
             | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
      |> String.concat ""

(* The daemon loop shared by serve/router, entered once the daemon runs.
   Requests come from stdin or, with --socket, one connection at a time
   (each connection's jobs are answered before it is closed). A signal
   requests a hard stop: in-flight jobs finish, still-queued ones are
   answered with "dropped" lines. EOF drains everything. *)
let run_daemon ~cmd ~conn_errors ~listening ~submit ~quiesce ~stop ~drain ~pp_summary
    ~worker_heaps ~socket ~sink ~obs_file ~tracer ~trace_out =
  let module Transport = Agrid_serve.Transport in
  let stop_requested = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  let stopping () = Atomic.get stop_requested in
  (match socket with
  | None ->
      let respond line =
        print_string line;
        print_newline ();
        flush stdout
      in
      ignore (Transport.pump ~stop:stopping stdin ~on_line:(submit ~respond))
  | Some path -> (
      match Transport.listen ~path with
      | Error msg ->
          Fmt.epr "agrid %s: %s@." cmd msg;
          exit 2
      | Ok t ->
          Fmt.epr "agrid %s: listening on %s (%s)@." cmd path listening;
          Fun.protect
            ~finally:(fun () -> Transport.shutdown t)
            (fun () ->
              Transport.accept_loop ~obs:sink ~counter:conn_errors ~stop:stopping t
                ~handle:(fun ~respond ~ic ->
                  let r = Transport.pump ~stop:stopping ic ~on_line:(submit ~respond) in
                  quiesce ();
                  r))));
  let dropped =
    if stopping () then stop ()
    else begin
      drain ();
      0
    end
  in
  Fmt.epr "agrid %s: %t@." cmd pp_summary;
  (* where the resident set goes: each domain owns a minor heap of the
     size it reports below (this reader domain, then each worker's),
     beside the shared major heap *)
  let gc = Gc.quick_stat () in
  let workers =
    match worker_heaps () with
    | [] -> ""
    | ws -> " workers " ^ String.concat " " (List.map string_of_int ws)
  in
  Fmt.epr
    "agrid %s: gc: minor heap words reader %d%s, heap_words %d, top_heap_words %d, \
     %d major collections, %d minor collections%s@."
    cmd (Gc.get ()).Gc.minor_heap_size workers gc.Gc.heap_words gc.Gc.top_heap_words
    gc.Gc.major_collections gc.Gc.minor_collections (vm_kb ());
  if dropped > 0 then
    Fmt.epr "agrid %s: dropped %d queued job(s) on shutdown@." cmd dropped;
  write_obs obs_file sink;
  write_trace ~cmd trace_out tracer;
  0

let serve_cmd =
  let module Server = Agrid_serve.Server in
  let parse_tenant_caps raw =
    (* each --tenant-cap is NAME=N; collect them in order, reject dupes *)
    List.fold_left
      (fun acc item ->
        Result.bind acc (fun caps ->
            match String.index_opt item '=' with
            | None -> Error (Fmt.str "--tenant-cap %S: expected NAME=N" item)
            | Some i -> (
                let name = String.sub item 0 i in
                let num = String.sub item (i + 1) (String.length item - i - 1) in
                match int_of_string_opt num with
                | None | Some 0 ->
                    Error (Fmt.str "--tenant-cap %S: cap must be a positive integer" item)
                | Some n when n < 0 ->
                    Error (Fmt.str "--tenant-cap %S: cap must be a positive integer" item)
                | Some n ->
                    if name = "" then
                      Error (Fmt.str "--tenant-cap %S: empty tenant name" item)
                    else if List.mem_assoc name caps then
                      Error (Fmt.str "--tenant-cap %S: duplicate tenant" item)
                    else Ok (caps @ [ (name, n) ]))))
      (Ok []) raw
  in
  let action workers queue socket tenant_caps_raw obs_file trace_out =
    if workers <= 0 then begin
      Fmt.epr "agrid serve: --workers must be positive@.";
      2
    end
    else if queue <= 0 then begin
      Fmt.epr "agrid serve: --queue must be positive@.";
      2
    end
    else begin
      let tenant_caps =
        match parse_tenant_caps tenant_caps_raw with
        | Ok caps -> caps
        | Error msg ->
            Fmt.epr "agrid serve: %s@." msg;
            exit 2
      in
      let sink = sink_for obs_file in
      let tracer = tracer_for ~nonce:0 trace_out in
      let server =
        Server.create ~obs:sink ?trace:tracer ~tenant_caps ~workers
          ~queue_capacity:queue ()
      in
      Server.start server;
      run_daemon ~cmd:"serve" ~conn_errors:"serve/conn_errors"
        ~listening:(Fmt.str "%d workers, queue %d" workers queue)
        ~submit:(Server.submit server)
        ~quiesce:(fun () -> Server.quiesce server)
        ~stop:(fun () -> Server.stop server)
        ~drain:(fun () -> Server.drain server)
        ~pp_summary:(fun ppf -> Server.pp_stats ppf (Server.stats server))
        ~worker_heaps:(fun () -> Server.worker_heap_words server)
        ~socket ~sink ~obs_file ~tracer ~trace_out
    end
  in
  let workers_t =
    Arg.(
      value
      & opt int (Agrid_par.Parallel.default_domains ())
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains executing jobs (default: available cores).")
  in
  let queue_t =
    Arg.(
      value
      & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Job queue capacity; jobs beyond it are rejected with a typed queue_full response (backpressure, never unbounded buffering).")
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of stdin (one connection at a time; responses stream back on the same connection).")
  in
  let tenant_caps_t =
    Arg.(
      value
      & opt_all string []
      & info [ "tenant-cap" ] ~docv:"NAME=N"
          ~doc:"Cap tenant NAME at N outstanding (queued or running) jobs; a job carrying that tenant while the cap is reached is rejected with a typed tenant_quota response. Repeatable; unlisted tenants are never capped.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the scenario service: a long-lived daemon reading one agrid-job/1 JSON request per line (from stdin or a Unix-domain socket) and streaming one JSON result line per job from a persistent worker pool. SIGINT/SIGTERM finishes in-flight jobs and reports dropped queue entries; EOF drains the whole queue. Pool telemetry (serve/* counters, queue depth, per-job latency) lands in --obs; kind:\"stats\" requests are answered with live agrid-stats/1 snapshots (see `agrid top`).")
    Term.(
      const action $ workers_t $ queue_t $ socket_t $ tenant_caps_t $ obs_t
      $ trace_out_t
          ~daemon:"Relayed jobs keep the router-stamped trace id, so backend \
                   events correlate with the router's timeline.")

(* ---- router ---- *)

let router_cmd =
  let module Router = Agrid_fleet.Router in
  let action backend_paths queue inflight retries backoff_ms probe_interval_ms
      probe_timeout_ms seed socket obs_file trace_out =
    let invalid msg =
      Fmt.epr "agrid router: %s@." msg;
      2
    in
    if backend_paths = [] then
      invalid "at least one --backend socket path is required"
    else if queue <= 0 then invalid "--queue must be positive"
    else if inflight <= 0 then invalid "--inflight must be positive"
    else if retries <= 0 then invalid "--retries must be positive"
    else if backoff_ms <= 0. then invalid "--backoff-ms must be positive"
    else if probe_interval_ms <= 0. then
      invalid "--probe-interval-ms must be positive"
    else if probe_timeout_ms <= 0. then
      invalid "--probe-timeout-ms must be positive"
    else begin
      let sink = sink_for obs_file in
      let config =
        {
          Router.default_config with
          Router.queue_capacity = queue;
          inflight_cap = inflight;
          max_attempts = retries;
          backoff_base_s = backoff_ms /. 1000.;
          backoff_cap_s = Float.max (backoff_ms /. 1000.) Router.default_config.Router.backoff_cap_s;
          probe_interval_s = probe_interval_ms /. 1000.;
          probe_timeout_s = probe_timeout_ms /. 1000.;
          seed;
        }
      in
      let spec path =
        {
          Router.name = path;
          connect =
            (fun () ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              (try Unix.connect fd (Unix.ADDR_UNIX path)
               with e ->
                 (try Unix.close fd with Unix.Unix_error _ -> ());
                 raise e);
              fd);
        }
      in
      let tracer = tracer_for ~nonce:seed trace_out in
      let router =
        Router.create ~obs:sink ?trace:tracer config (List.map spec backend_paths)
      in
      match Router.start router with
      | Error msg ->
          Fmt.epr "agrid router: %s@." msg;
          2
      | Ok () ->
          run_daemon ~cmd:"router" ~conn_errors:"fleet/conn_errors"
            ~listening:(Fmt.str "%d backends" (List.length backend_paths))
            ~submit:(Router.submit router)
            ~quiesce:(fun () -> Router.quiesce router)
            ~stop:(fun () -> Router.stop router)
            ~drain:(fun () -> Router.drain router)
            ~pp_summary:(fun ppf -> Router.pp_stats ppf (Router.stats router))
            ~worker_heaps:(fun () -> [])
            ~socket ~sink ~obs_file ~tracer ~trace_out
    end
  in
  let backends_t =
    Arg.(
      value
      & opt_all string []
      & info [ "backend" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of an `agrid serve` backend; repeat once per backend. At least one is required.")
  in
  let queue_t =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Router admission queue capacity; requests beyond it are rejected with a typed queue_full response (default 64).")
  in
  let inflight_t =
    Arg.(
      value & opt int 8
      & info [ "inflight" ] ~docv:"N"
          ~doc:"Maximum unresolved jobs per backend before the router holds further dispatches back (default 8).")
  in
  let retries_t =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:"Dispatch attempts per job before surfacing a typed all_backends_saturated rejection (default 5).")
  in
  let backoff_t =
    Arg.(
      value & opt float 50.
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base retry backoff in milliseconds, doubled per attempt with jitter (default 50).")
  in
  let probe_interval_t =
    Arg.(
      value & opt float 2000.
      & info [ "probe-interval-ms" ] ~docv:"MS"
          ~doc:"Health-probe period per backend (default 2000).")
  in
  let probe_timeout_t =
    Arg.(
      value & opt float 1000.
      & info [ "probe-timeout-ms" ] ~docv:"MS"
          ~doc:"Probe round-trip deadline; consecutive misses degrade then kill the connection, after which the router reconnects with backoff (default 1000).")
  in
  let seed_t =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Backoff-jitter PRNG seed, for reproducible runs (default 0).")
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of stdin (one connection at a time; responses stream back on the same connection).")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:"Run the fault-tolerant fleet front end: accepts agrid-job/1 request lines (stdin or a Unix-domain socket) and load-balances them over health-checked `agrid serve` backends. Backend saturation is retried with jittered exponential backoff before a typed all_backends_saturated rejection; a dying backend's accepted-but-unwritten jobs fail over to its peers, and ambiguous in-flight jobs surface as typed maybe_executed lines — never re-run (at-most-once). Exactly one response line per request, with monotone ids. Fleet telemetry (fleet/* counters, probe RTT histograms) lands in --obs.")
    Term.(
      const action $ backends_t $ queue_t $ inflight_t $ retries_t $ backoff_t
      $ probe_interval_t $ probe_timeout_t $ seed_t $ socket_t $ obs_t
      $ trace_out_t
          ~daemon:"The derived trace id is stamped into every forwarded job \
                   line; the --seed doubles as the trace-id nonce.")

(* ---- dot ---- *)

(* ---- traffic ---- *)

let traffic_cmd =
  let module Traffic = Agrid_tenant.Traffic in
  let module Tenant = Agrid_tenant.Tenant in
  let load_spec raw =
    (* --spec takes inline JSON or @FILE, like curl's data syntax *)
    let text =
      if String.length raw > 0 && raw.[0] = '@' then begin
        let path = String.sub raw 1 (String.length raw - 1) in
        match read_lines path with
        | lines -> Ok (String.concat "\n" lines)
        | exception Sys_error msg -> Error msg
      end
      else Ok raw
    in
    Result.bind text Traffic.spec_of_string
  in
  let run_local spec replicates obs_file =
    let sink = sink_for obs_file in
    if replicates = 1 then begin
      let o = Traffic.run ~obs:sink spec in
      Fmt.pr "%a@." Agrid_report.Table.pp (Traffic.rollup_table o);
      Fmt.pr
        "traffic: %d apps, %d scheduler steps, %d DRR rounds, final time %d, \
         fairness gap %.3f@."
        (List.length o.Traffic.apps) o.Traffic.total_steps o.Traffic.rounds
        o.Traffic.final_time o.Traffic.fairness_gap
    end
    else begin
      let s = Agrid_exper.Campaign.run_traffic ~obs:sink ~replicates spec in
      Fmt.pr "%a@." Agrid_report.Table.pp (Agrid_exper.Campaign.traffic_table s)
    end;
    write_obs obs_file sink;
    0
  in
  let run_connect spec path =
    (* Stream the arrival plan as agrid-job/1 lines against a live daemon:
       one one-shot request per application, tenant field attached, the
       same derived workload seeds the in-process engine would use. *)
    let module Transport = Agrid_serve.Transport in
    let module Job = Agrid_serve.Job in
    let module Codec = Agrid_serve.Codec in
    let streams = Array.of_list spec.Traffic.tenants in
    let arrivals =
      Agrid_tenant.Arrivals.generate ~seed:spec.Traffic.seed
        ~horizon:spec.Traffic.horizon
        (List.map (fun ts -> ts.Traffic.ts_process) spec.Traffic.tenants)
    in
    let sent = ref 0 and ok = ref 0 and rejected = ref 0 and failed = ref 0 in
    List.iter
      (fun (a : Agrid_tenant.Arrivals.arrival) ->
        let ts = streams.(a.Agrid_tenant.Arrivals.stream) in
        let tenant = ts.Traffic.ts_tenant.Tenant.id in
        let seq = a.Agrid_tenant.Arrivals.seq in
        let job =
          {
            (Job.default
               (Serialize.Generated
                  {
                    seed = Traffic.app_seed spec ~stream:a.Agrid_tenant.Arrivals.stream ~seq;
                    scale = spec.Traffic.scale;
                    etc_index = 0;
                    dag_index = 0;
                    case = spec.Traffic.case;
                  }))
            with
            Job.tag = Some (Fmt.str "%s-%d" tenant seq);
            tenant = Some tenant;
          }
        in
        incr sent;
        match
          Transport.request ~path (Agrid_obs.Json.to_string (Codec.job_to_json job))
        with
        | Error msg ->
            incr failed;
            Fmt.epr "agrid traffic: %s@." msg
        | Ok line -> (
            match Codec.parse_response line with
            | Ok { Codec.r_type = `Result; _ } -> incr ok
            | Ok { Codec.r_type = `Rejected; _ } -> incr rejected
            | Ok _ | Error _ -> incr failed))
      arrivals;
    Fmt.pr "traffic: sent %d, results %d, rejected %d, failed %d -> %s@." !sent
      !ok !rejected !failed path;
    if !failed = 0 then 0 else 1
  in
  let action spec_raw replicates connect obs_file =
    match spec_raw with
    | None ->
        Fmt.epr "agrid traffic: need --spec JSON or --spec @FILE (schema %s)@."
          Traffic.schema;
        2
    | Some raw -> (
        match load_spec raw with
        | Error msg ->
            Fmt.epr "agrid traffic: %s@." msg;
            2
        | Ok spec ->
            if replicates <= 0 then begin
              Fmt.epr "agrid traffic: --replicates must be positive@.";
              2
            end
            else (
              match connect with
              | None -> run_local spec replicates obs_file
              | Some path -> run_connect spec path))
  in
  let spec_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"JSON|@FILE"
          ~doc:"agrid-traffic/1 spec: seed, horizon, per-tenant arrival processes (Poisson rate or explicit trace), priority classes and quotas. Inline JSON, or @FILE to read it from a file.")
  in
  let replicates_t =
    Arg.(
      value
      & opt int 1
      & info [ "replicates" ] ~docv:"N"
          ~doc:"Rerun the spec N times under derived seeds and report per-tenant means (default 1: a single run with the full per-tenant rollup).")
  in
  let connect_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:"Instead of the in-process engine, stream the arrival plan as agrid-job/1 lines (tenant field attached) against a daemon's Unix-domain socket.")
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:"Drive continuous multi-tenant traffic: deterministic per-tenant application arrivals (Poisson or trace), quota admission, and DRR fairness-weighted sharing of one commit loop. Default: run in process and print the per-tenant rollup; --connect streams the same plan against a live daemon.")
    Term.(const action $ spec_t $ replicates_t $ connect_t $ obs_t)

let dot_cmd =
  let action seed scale dag =
    let spec = spec_of ~seed ~scale in
    let d = Workload.dag_for_spec spec ~dag_index:dag in
    Fmt.pr "%s" (Agrid_dag.Dot.to_string ~name:(Fmt.str "dag%d" dag) d);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a generated task DAG in Graphviz format.")
    Term.(const action $ seed_t $ scale_t $ dag_t)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "agrid" ~version:"1.0.0"
      ~doc:"Lagrangian receding horizon resource management for ad hoc grids (IPDPS 2004 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ run_cmd; tune_cmd; dynamic_cmd; churn_cmd; traffic_cmd; serve_cmd; router_cmd; top_cmd; prof_cmd; explain_cmd;
            ledger_diff_cmd; trace_cmd; tables_cmd; figure2_cmd; ub_cmd; calibrate_cmd;
            export_cmd; import_cmd; dot_cmd ]))
