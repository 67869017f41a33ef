(* Time-constraint calibration, replicating the paper's procedure: "a value
   of 34,075 seconds was selected as the time constraint tau ... based on
   experiments using a simple greedy static heuristic" (Section III). The
   greedy MCT mapper is run on a handful of Case A scenarios and tau is set
   to the median makespan times a slack factor, making the constraint
   equally tight at any workload scale. *)

open Agrid_workload

let default_probes = 3

(* Greedy MCT makespan of one scenario, in cycles. *)
let greedy_makespan spec ~etc_index ~dag_index ~case =
  let wl = Workload.build spec ~etc_index ~dag_index ~case in
  (Greedy.run wl).Greedy.makespan

(* Median greedy makespan over [n_probes] (etc, dag) pairs on Case A,
   scaled by [slack]. The paper's single tau serves all three cases; so
   does this one. *)
let tau_cycles ?(slack = 1.0) ?(n_probes = default_probes) spec =
  if slack <= 0. then invalid_arg "Calibrate.tau_cycles: slack must be positive";
  if n_probes <= 0 then invalid_arg "Calibrate.tau_cycles: n_probes must be positive";
  let makespans =
    Array.init n_probes (fun i ->
        float_of_int
          (greedy_makespan spec ~etc_index:i ~dag_index:i ~case:Agrid_platform.Grid.A))
  in
  let median = Agrid_stats.Descriptive.median makespans in
  max 1 (int_of_float (Float.ceil (median *. slack)))
