(* Instrumentation walkthrough: attach a decision ledger to SLRH-1 (the
   paper's "historical record of all critical parameters", Section IV),
   read its per-decision trace view, summarise the decision stream, export
   it as CSV, and render the resulting schedule as an ASCII Gantt chart.

     dune exec examples/trace_analysis.exe *)

open Agrid_workload
open Agrid_sched
open Agrid_core

let () =
  let spec = Spec.scaled ~seed:42 ~factor:(64. /. 1024.) () in
  let workload = Workload.build spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let obs = Agrid_obs.Sink.create ~ledger:true () in
  let outcome = Slrh.run { (Slrh.default_params weights) with Slrh.obs } workload in
  Fmt.pr "%a@.@." Slrh.pp_outcome outcome;
  let tracer = Trace.of_ledger (Option.get (Agrid_obs.Sink.ledger obs)) in

  (* 1. decision-stream summary: how often was a free machine starved
     (empty pool) or blocked by the horizon? *)
  let summary = Trace.summarize tracer in
  Fmt.pr "decision trace: %a@.@." Trace.pp_summary summary;

  (* 2. per-machine assignment counts and the energy trajectory, straight
     from the event stream *)
  let m = Workload.n_machines workload in
  let counts = Array.make m 0 in
  let last_energy = Array.make m Float.nan in
  Array.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Assigned { energy_remaining; _ } ->
          counts.(e.Trace.machine) <- counts.(e.Trace.machine) + 1;
          last_energy.(e.Trace.machine) <- energy_remaining
      | Trace.Pool_empty | Trace.Horizon_miss _ -> ())
    (Trace.events tracer);
  Array.iteri
    (fun j c ->
      Fmt.pr "machine %d: %3d assignments, final battery margin %.3f units@." j c
        last_energy.(j))
    counts;

  (* 3. CSV export for external analysis *)
  let path = Filename.temp_file "agrid_trace" ".csv" in
  Agrid_report.Csv.write_file path ~header:Trace.csv_header (Trace.csv_rows tracer);
  Fmt.pr "@.full trace written to %s (%d events)@.@." path (Trace.length tracer);

  (* 4. Gantt view of the final schedule *)
  let lane_exec j =
    let intervals = ref [] in
    Array.iter
      (fun (p : Schedule.placement) ->
        if p.Schedule.machine = j then
          intervals :=
            ( p.Schedule.start,
              p.Schedule.stop,
              if Version.is_primary p.Schedule.version then 'P' else 's' )
            :: !intervals)
      (Schedule.placements outcome.Slrh.schedule);
    Agrid_report.Gantt.lane ~name:(Fmt.str "machine %d" j) !intervals
  in
  Fmt.pr "%a@."
    (Agrid_report.Gantt.pp ~width:68)
    (Agrid_report.Gantt.make ~title:"executions (P primary, s secondary)"
       (List.init m lane_exec))
