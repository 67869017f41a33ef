(* Parameter sweeps over the SLRH knobs:

   - delta_t (Figure 2): large steps leave machines idle and depress T100;
     small steps blow up heuristic execution time;
   - horizon H: the paper found T100 and execution time insensitive to H
     (reported in the text; reproduced here as an ablation bench). *)

open Agrid_core

type point = {
  value : int; (* the swept parameter's value *)
  t100 : int;
  feasible : bool;
  completed : bool;
  wall_seconds : float;
}

(* One SLRH-1 run at the given step and horizon. *)
let run_point ~weights ~delta_t ~horizon workload =
  let params = { (Slrh.default_params weights) with Slrh.delta_t; horizon } in
  let o = Slrh.run params workload in
  let r = Agrid_sched.Validate.check o.Slrh.schedule in
  {
    value = 0;
    t100 = r.Agrid_sched.Validate.t100;
    feasible = Agrid_sched.Validate.feasible r;
    completed = o.Slrh.completed;
    wall_seconds = o.Slrh.wall_seconds;
  }

let delta_t ?(horizon = 100) ~weights ~values workload =
  List.map
    (fun dt -> { (run_point ~weights ~delta_t:dt ~horizon workload) with value = dt })
    values

let horizon ?(delta_t = 10) ~weights ~values workload =
  List.map
    (fun h -> { (run_point ~weights ~delta_t ~horizon:h workload) with value = h })
    values

(* The paper's Figure 2 sweep values (delta_t in cycles): small values blow
   up execution time, very large ones leave machines idle long enough to
   depress T100. *)
let figure2_delta_t_values = [ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000 ]

(* Horizon ablation values (cycles). *)
let default_horizon_values = [ 10; 25; 50; 100; 200; 400; 800 ]

let pp_point ppf p =
  Fmt.pf ppf "value=%d T100=%d feasible=%b wall=%.4fs" p.value p.t100 p.feasible
    p.wall_seconds
