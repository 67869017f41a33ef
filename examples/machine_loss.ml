(* Dynamic ad hoc grid demo: a machine disappears mid-run and SLRH
   reschedules the surviving and remaining work on the machines still
   present (the churn engine masks the lost one out of every later
   sweep) — the scenario the paper motivates (Section I) and brackets
   with its static Cases B and C.

     dune exec examples/machine_loss.exe

   Sweeps the loss instant and the lost machine's class, reporting how
   much work survives, the sunk energy, and the final T100 versus the
   never-lost (Case A) and born-reduced (Case B/C) baselines. *)

open Agrid_workload
open Agrid_sched
open Agrid_core
module Event = Agrid_churn.Event
module Engine = Agrid_churn.Engine

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3

let () =
  let spec = Spec.default ~seed:42 () in
  let workload = Workload.build spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let params = Slrh.default_params weights in
  let tau = Workload.tau workload in

  (* baselines: the static cases the dynamic run should land between *)
  let static case =
    let wl = Workload.build spec ~etc_index:0 ~dag_index:0 ~case in
    let o = Slrh.run params wl in
    (Validate.check o.Slrh.schedule).Validate.t100
  in
  let t100_a = static Agrid_platform.Grid.A in
  let t100_b = static Agrid_platform.Grid.B in
  let t100_c = static Agrid_platform.Grid.C in
  Fmt.pr "static baselines: Case A (no loss) T100=%d, Case B (slow lost) %d, Case C (fast lost) %d@.@."
    t100_a t100_b t100_c;

  let rows =
    List.concat_map
      (fun (label, machine) ->
        List.map
          (fun fraction ->
            let at = int_of_float (float_of_int tau *. fraction) in
            let o = Dynamic.run_churn params workload [ { Event.at; kind = Event.Leave machine } ] in
            let leave = List.hd o.Engine.applied in
            let r = Validate.check o.Engine.schedule in
            [
              label;
              Fmt.str "%.0f%% of tau" (100. *. fraction);
              string_of_int leave.Engine.ev_survivors;
              string_of_int o.Engine.n_discarded;
              Fmt.str "%.2f" o.Engine.sunk_energy;
              string_of_int r.Validate.t100;
              (if Validate.feasible r && o.Engine.ledger_energy_ok then "yes" else "NO");
            ])
          [ 0.1; 0.25; 0.5; 0.75 ])
      [ ("slow machine 3", 3); ("fast machine 1", 1) ]
  in
  Fmt.pr "%a@." Agrid_report.Table.pp
    (Agrid_report.Table.make
       ~title:"Machine loss mid-run: SLRH on-the-fly rescheduling"
       ~columns:
         [ "lost machine"; "loss time"; "survivors"; "discarded"; "sunk energy"; "final T100"; "feasible" ]
       ~rows);
  Fmt.pr
    "Reading: losing a machine late costs more sunk energy but preserves more finished work;@.";
  Fmt.pr
    "losing a fast machine hurts T100 far more than losing a slow one (compare Cases B/C).@."
