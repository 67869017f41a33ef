open Agrid_workload
open Agrid_sched
open Agrid_core

(* ---- objective ---- *)

let w331 = Objective.make_weights ~alpha:0.4 ~beta:0.3 (* gamma 0.3 *)

let test_weights_construction () =
  let w = Objective.make_weights ~alpha:0.5 ~beta:0.2 in
  Testlib.close "gamma" 0.3 w.Objective.gamma;
  Alcotest.check_raises "negative"
    (Invalid_argument "Objective.make_weights: weights must be nonnegative") (fun () ->
      ignore (Objective.make_weights ~alpha:(-0.1) ~beta:0.2));
  Alcotest.check_raises "sum > 1"
    (Invalid_argument "Objective.make_weights: alpha + beta must not exceed 1")
    (fun () -> ignore (Objective.make_weights ~alpha:0.9 ~beta:0.2))

let test_objective_formula () =
  (* hand evaluation: alpha*T100/|T| - beta*TEC/TSE + gamma*AET/tau *)
  let v =
    Objective.value w331 ~t100:512 ~n_tasks:1024 ~tec:100. ~tse:1000. ~aet:5000
      ~tau:10000
  in
  Testlib.close "formula" ((0.4 *. 0.5) -. (0.3 *. 0.1) +. (0.3 *. 0.5)) v

let test_objective_monotonicity () =
  (* more primaries -> higher; more energy -> lower; later AET -> higher *)
  let base =
    Objective.value w331 ~t100:10 ~n_tasks:100 ~tec:50. ~tse:500. ~aet:100 ~tau:1000
  in
  let more_t100 =
    Objective.value w331 ~t100:11 ~n_tasks:100 ~tec:50. ~tse:500. ~aet:100 ~tau:1000
  in
  let more_tec =
    Objective.value w331 ~t100:10 ~n_tasks:100 ~tec:60. ~tse:500. ~aet:100 ~tau:1000
  in
  let later_aet =
    Objective.value w331 ~t100:10 ~n_tasks:100 ~tec:50. ~tse:500. ~aet:200 ~tau:1000
  in
  Alcotest.(check bool) "t100 up" true (more_t100 > base);
  Alcotest.(check bool) "tec down" true (more_tec < base);
  Alcotest.(check bool) "aet up (positive gamma term)" true (later_aet > base)

let test_objective_bounded () =
  (* all terms normalised: value within [-1, 1] for sane inputs *)
  let gen =
    QCheck2.Gen.(
      let* a = float_range 0. 1. in
      let* b = float_range 0. (1. -. a) in
      let* t100 = int_range 0 1024 in
      let* tec = float_range 0. 1000. in
      let* aet = int_range 0 10_000 in
      return (a, b, t100, tec, aet))
  in
  let prop (a, b, t100, tec, aet) =
    let w = Objective.make_weights ~alpha:a ~beta:b in
    let v =
      Objective.value w ~t100 ~n_tasks:1024 ~tec ~tse:1000. ~aet ~tau:10_000
    in
    v >= -1.0000001 && v <= 1.0000001
  in
  QCheck2.Test.check_exn (QCheck2.Test.make ~count:500 ~name:"objective bounded" gen prop)

let test_estimate_vs_after_plan () =
  (* on an empty machine with mapped parents the estimate and the exact plan
     agree for the diamond root *)
  let s = Schedule.create (Testlib.diamond_workload ()) in
  let est =
    (Objective.estimate_parts w331 s ~task:0 ~version:Version.Primary ~machine:0 ~now:0)
      .Objective.total
  in
  let p = Schedule.plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let exact = Objective.after_plan w331 s p in
  Testlib.close "estimate = exact for root" exact est

let test_best_version_prefers_primary_when_cheap () =
  let s = Schedule.create (Testlib.diamond_workload ()) in
  let v, _ = Objective.best_version w331 s ~task:0 ~machine:0 ~now:0 in
  Alcotest.(check bool) "primary" true (Version.is_primary v)

let test_best_version_beta_dominant () =
  (* with beta ~ 1 energy dominates: secondary wins *)
  let w = Objective.make_weights ~alpha:0.0 ~beta:1.0 in
  let s = Schedule.create (Testlib.diamond_workload ()) in
  let v, _ = Objective.best_version w s ~task:0 ~machine:0 ~now:0 in
  Alcotest.(check bool) "secondary" true (not (Version.is_primary v))

let test_aet_sign_paper_claim () =
  (* paper Section IV: the negative AET sign produces very short AET
     solutions with lower T100 *)
  let wl = Testlib.small_workload () in
  let run sign =
    let weights =
      Objective.with_aet_sign sign (Objective.make_weights ~alpha:0.4 ~beta:0.3)
    in
    let o = Slrh.run (Slrh.default_params weights) wl in
    (Schedule.n_primary o.Slrh.schedule, Schedule.aet o.Slrh.schedule)
  in
  let t100_reward, aet_reward = run Objective.Reward in
  let t100_penalise, aet_penalise = run Objective.Penalise in
  Alcotest.(check bool) "penalise -> shorter AET" true (aet_penalise < aet_reward);
  Alcotest.(check bool) "penalise -> no more primaries" true
    (t100_penalise <= t100_reward)

let test_aet_sign_value () =
  let w = Objective.with_aet_sign Objective.Penalise w331 in
  let v =
    Objective.value w ~t100:0 ~n_tasks:10 ~tec:0. ~tse:1. ~aet:500 ~tau:1000
  in
  Testlib.close "negative aet term" (-0.15) v

let test_machine_order_variants_validate () =
  let wl = Testlib.small_workload () in
  let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  List.iter
    (fun order ->
      let params =
        { (Slrh.default_params weights) with Slrh.machine_order = order }
      in
      let o = Slrh.run params wl in
      let r = Validate.check o.Slrh.schedule in
      Alcotest.(check (list string))
        (Slrh.machine_order_to_string order ^ " valid")
        [] r.Validate.violations;
      Alcotest.(check bool) "completed" true o.Slrh.completed)
    [ Slrh.Numerical; Slrh.Fast_first; Slrh.Most_energy_first ]

(* ---- feasibility ---- *)

let test_feasibility_pool_root_only () =
  let s = Schedule.create (Testlib.diamond_workload ()) in
  Alcotest.(check (list int)) "root only" [ 0 ] (Feasibility.candidate_pool s ~machine:0)

let test_feasibility_energy_gate () =
  (* battery too small for even the secondary: pool empty *)
  let spec = { (Testlib.diamond_spec ()) with Spec.battery_scale = 1e-6 } in
  let wl =
    Workload.build spec ~etc:(Testlib.diamond_etc ()) ~dag:(Testlib.diamond_dag ())
      ~data_bits:(Testlib.diamond_data ()) ~etc_index:0 ~dag_index:0
      ~case:Agrid_platform.Grid.A
  in
  let s = Schedule.create wl in
  Alcotest.(check (list int)) "empty pool" [] (Feasibility.candidate_pool s ~machine:0)

(* A diamond workload whose fast machines hold [battery] energy units. *)
let diamond_with_battery battery =
  let spec = { (Testlib.diamond_spec ()) with Spec.battery_scale = battery /. 580. } in
  Workload.build spec ~etc:(Testlib.diamond_etc ()) ~dag:(Testlib.diamond_dag ())
    ~data_bits:(Testlib.diamond_data ()) ~etc_index:0 ~dag_index:0
    ~case:Agrid_platform.Grid.A

let test_feasibility_required_energy () =
  (* task 0 secondary on machine 0: exec 10 cycles = 1s * 0.1 = 0.1;
     worst-case comm: children volumes 1e5 bits each (secondary), worst link
     4 Mb/s -> 0.025 s -> 1 cycle = 0.1 s * 0.2 = 0.02 each, 0.04 total.
     A 0.12 battery holds the execution but not the communication bound. *)
  let s = Schedule.create (diamond_with_battery 0.12) in
  (match Feasibility.verdict s ~task:0 ~machine:0 with
  | Error (Feasibility.Comm_energy { exec; comm; _ }) ->
      Testlib.close "exec" 0.1 exec;
      Testlib.close "comm" 0.04 comm
  | _ -> Alcotest.fail "expected a communication-energy rejection");
  Alcotest.(check bool) "optimistic skips comm" true
    (Result.is_ok (Feasibility.verdict ~mode:Feasibility.Optimistic s ~task:0 ~machine:0))

let test_feasibility_conservative_stricter () =
  List.iter
    (fun battery ->
      let s = Schedule.create (diamond_with_battery battery) in
      for task = 0 to 3 do
        for machine = 0 to 3 do
          List.iter
            (fun version ->
              let admits mode = Feasibility.version_feasible ~mode s ~task ~machine ~version in
              if admits Feasibility.Conservative && not (admits Feasibility.Optimistic) then
                Alcotest.fail "conservative admits what optimistic refuses")
            Version.all
        done
      done)
    [ 0.01; 0.05; 0.1; 0.12; 0.14; 0.2; 0.5; 1.; 5.; 580. ]

(* ---- SLRH ---- *)

(* A weight point verified to complete feasibly at this scale for all three
   cases (the paper tunes (alpha, beta) per scenario; tests just need one
   completing point). *)
let default_weights = Objective.make_weights ~alpha:0.3 ~beta:0.3

let run_slrh ?(variant = Slrh.V1) ?(case = Agrid_platform.Grid.A) ?seed () =
  let wl = Testlib.small_workload ?seed ~case () in
  let params = { (Slrh.default_params ~variant default_weights) with Slrh.delta_t = 10 } in
  (Slrh.run params wl, wl)

let test_slrh1_completes_and_validates () =
  let o, _ = run_slrh () in
  Alcotest.(check bool) "completed" true o.Slrh.completed;
  let r = Validate.check o.Slrh.schedule in
  Alcotest.(check (list string)) "no violations" [] r.Validate.violations;
  Alcotest.(check bool) "complete" true r.Validate.complete

let test_slrh3_completes_and_validates () =
  let o, _ = run_slrh ~variant:Slrh.V3 () in
  Alcotest.(check bool) "completed" true o.Slrh.completed;
  let r = Validate.check o.Slrh.schedule in
  Alcotest.(check (list string)) "no violations" [] r.Validate.violations

let test_slrh2_runs () =
  (* SLRH-2 need not produce feasible results (the paper dropped it), but it
     must terminate and produce a structurally valid partial schedule *)
  let o, _ = run_slrh ~variant:Slrh.V2 () in
  let r = Validate.check o.Slrh.schedule in
  Alcotest.(check (list string)) "structurally valid" [] r.Validate.violations

let test_slrh_deterministic () =
  let o1, _ = run_slrh () and o2, _ = run_slrh () in
  Alcotest.(check int) "same t100" (Schedule.n_primary o1.Slrh.schedule)
    (Schedule.n_primary o2.Slrh.schedule);
  Alcotest.(check int) "same aet" (Schedule.aet o1.Slrh.schedule)
    (Schedule.aet o2.Slrh.schedule)

let test_slrh_all_cases () =
  List.iter
    (fun case ->
      let o, _ = run_slrh ~case () in
      Alcotest.(check bool)
        (Agrid_platform.Grid.case_name case ^ " completed")
        true o.Slrh.completed;
      let r = Validate.check o.Slrh.schedule in
      Alcotest.(check (list string)) "valid" [] r.Validate.violations)
    Agrid_platform.Grid.all_cases

let test_slrh_respects_horizon_start () =
  (* every execution must start no earlier than the timestep that mapped it
     would allow; weaker invariant testable post-hoc: starts within clock
     progression means start <= final clock + horizon *)
  let o, _ = run_slrh () in
  let params_horizon = 100 in
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.start > o.Slrh.final_clock + params_horizon then
        Alcotest.failf "task %d starts at %d, beyond final clock %d + H" p.Schedule.task
          p.Schedule.start o.Slrh.final_clock)
    (Schedule.placements o.Slrh.schedule)

let test_slrh_stats_consistent () =
  let o, wl = run_slrh () in
  Alcotest.(check int) "assignments = tasks" (Workload.n_tasks wl)
    o.Slrh.stats.Slrh.assignments;
  Alcotest.(check bool) "attempted >= assigned" true
    (o.Slrh.stats.Slrh.plans_attempted >= o.Slrh.stats.Slrh.assignments);
  Alcotest.(check bool) "wall time recorded" true (o.Slrh.wall_seconds >= 0.)

let test_slrh_param_validation () =
  let wl = Testlib.diamond_workload () in
  Alcotest.check_raises "delta_t" (Invalid_argument "Slrh: delta_t must be positive")
    (fun () ->
      ignore
        (Slrh.run { (Slrh.default_params default_weights) with Slrh.delta_t = 0 } wl))

let test_slrh_infeasible_stops_at_tau () =
  (* unreachable energy: nothing can ever be mapped; the clock must sweep to
     tau and stop *)
  let spec = { (Testlib.diamond_spec ()) with Spec.battery_scale = 1e-9 } in
  let wl =
    Workload.build spec ~etc:(Testlib.diamond_etc ()) ~dag:(Testlib.diamond_dag ())
      ~data_bits:(Testlib.diamond_data ()) ~etc_index:0 ~dag_index:0
      ~case:Agrid_platform.Grid.A
  in
  let o = Slrh.run (Slrh.default_params default_weights) wl in
  Alcotest.(check bool) "not completed" false o.Slrh.completed;
  Alcotest.(check int) "no assignments" 0 o.Slrh.stats.Slrh.assignments;
  Alcotest.(check bool) "clock passed tau" true (o.Slrh.final_clock > Workload.tau wl)

(* ---- upper bound ---- *)

let test_min_ratio_reference () =
  let mr = Upper_bound.min_ratios (Testlib.diamond_etc ()) in
  Testlib.close "MR(0)=1" 1. mr.(0);
  (* machine 1 ratios: 1.2, 0.9, 1.1, 16/14 -> min 0.9 *)
  Testlib.close "MR(1)" 0.9 mr.(1);
  (* machine 2 ratios: 10, 10, 280/30, 150/14 -> min 280/30 *)
  Testlib.close "MR(2)" (280. /. 30.) mr.(2)

let test_upper_bound_all_fit () =
  let etc = Testlib.diamond_etc () in
  let grid = Agrid_platform.Grid.of_case Agrid_platform.Grid.A in
  let r = Upper_bound.compute ~etc ~grid ~tau_seconds:2000. in
  Alcotest.(check int) "all four" 4 r.Upper_bound.t100_bound;
  Alcotest.(check bool) "complete" true (r.Upper_bound.limiting = `Complete)

let test_upper_bound_cycle_limited () =
  let etc = Testlib.diamond_etc () in
  let grid = Agrid_platform.Grid.of_case Agrid_platform.Grid.A in
  (* tau tiny: equivalent cycles run out. Min-energy placements are slow
     machines (0.1 u vs 1.0 u), cycles ETC/MR ~ 100/9.33 = 10.7 s each *)
  let r = Upper_bound.compute ~etc ~grid ~tau_seconds:8. in
  Alcotest.(check bool) "fewer than 4" true (r.Upper_bound.t100_bound < 4);
  Alcotest.(check bool) "cycles limit" true (r.Upper_bound.limiting = `Cycles)

let test_upper_bound_energy_limited () =
  let etc = Testlib.diamond_etc () in
  let grid = Agrid_platform.Grid.of_case ~battery_scale:1e-4 Agrid_platform.Grid.A in
  let r = Upper_bound.compute ~etc ~grid ~tau_seconds:2000. in
  Alcotest.(check bool) "energy limit" true (r.Upper_bound.limiting = `Energy);
  Alcotest.(check bool) "bound reduced" true (r.Upper_bound.t100_bound < 4)

let test_upper_bound_dominates_heuristics () =
  (* soundness: no heuristic may beat the upper bound *)
  List.iter
    (fun case ->
      let wl = Testlib.small_workload ~case () in
      let r =
        Upper_bound.compute ~etc:(Workload.etc wl) ~grid:(Workload.grid wl)
          ~tau_seconds:(Workload.spec wl).Spec.tau_seconds
      in
      let o = Slrh.run (Slrh.default_params default_weights) wl in
      if Schedule.n_primary o.Slrh.schedule > r.Upper_bound.t100_bound then
        Alcotest.failf "%s: T100 %d beats bound %d"
          (Agrid_platform.Grid.case_name case)
          (Schedule.n_primary o.Slrh.schedule)
          r.Upper_bound.t100_bound)
    Agrid_platform.Grid.all_cases

(* integration property: over random small workloads (random seed, size,
   case, weights), every SLRH run yields a structurally valid schedule that
   never beats the equivalent-computing-cycles upper bound *)
let test_qcheck_random_scenarios_sound () =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 0 5_000 in
      let* n = int_range 12 40 in
      let* case_ix = int_range 0 2 in
      let* alpha10 = int_range 0 10 in
      let* beta10 = int_range 0 (10 - alpha10) in
      let* variant_ix = int_range 0 2 in
      return (seed, n, case_ix, alpha10, beta10, variant_ix))
  in
  let prop (seed, n, case_ix, alpha10, beta10, variant_ix) =
    let spec =
      Spec.scaled ~seed ~factor:(float_of_int n /. 1024.) ()
    in
    let case = List.nth Agrid_platform.Grid.all_cases case_ix in
    let wl = Workload.build spec ~etc_index:0 ~dag_index:0 ~case in
    let weights =
      Objective.make_weights
        ~alpha:(float_of_int alpha10 /. 10.)
        ~beta:(float_of_int beta10 /. 10.)
    in
    let variant = List.nth [ Slrh.V1; Slrh.V2; Slrh.V3 ] variant_ix in
    let o = Slrh.run (Slrh.default_params ~variant weights) wl in
    let r = Validate.check o.Slrh.schedule in
    let ub =
      Upper_bound.compute ~etc:(Workload.etc wl) ~grid:(Workload.grid wl)
        ~tau_seconds:(Workload.spec wl).Spec.tau_seconds
    in
    r.Validate.violations = [] && r.Validate.t100 <= ub.Upper_bound.t100_bound
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:50 ~name:"random scenarios: valid and below UB" gen prop)

(* ---- flat SoA pool arena ---- *)

let test_flat_create () =
  let wl = Testlib.small_workload () in
  let a =
    Pool.Flat.create ~feas_mode:Feasibility.Conservative wl
  in
  Alcotest.(check int) "one row per machine" (Workload.n_machines wl)
    (Array.length a.Pool.Flat.rows);
  Alcotest.(check int) "default capacity" 16 (Pool.Flat.capacity a);
  Alcotest.(check int) "no regrowth yet" 0 (Pool.Flat.regrown a);
  Alcotest.(check int) "hwm starts at 0" 0 (Pool.Flat.hwm a);
  Array.iter
    (fun r ->
      Alcotest.(check int) "row epoch unbuilt" (-1) r.Pool.Flat.epoch;
      Alcotest.(check int) "row count 0" 0 r.Pool.Flat.count)
    a.Pool.Flat.rows;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Pool.Flat.create: initial capacity must be positive")
    (fun () ->
      ignore
        (Pool.Flat.create ~initial_capacity:0
           ~feas_mode:Feasibility.Conservative wl))

(* The regrowth contract the SoA hot path leans on: growth is geometric,
   allocates FRESH arrays (never a copy of stale slots), resets the live
   count, and bumps the regrown counter and capacity gauge — while a
   request under capacity touches nothing and returns the same buffer. *)
let test_flat_regrowth () =
  let wl = Testlib.small_workload () in
  let a =
    Pool.Flat.create ~initial_capacity:2 ~feas_mode:Feasibility.Conservative wl
  in
  let row = a.Pool.Flat.rows.(0) in
  let buf0 = Pool.Flat.ensure a row 2 in
  Alcotest.(check bool) "under capacity: same buffer" true
    (buf0 == row.Pool.Flat.tasks);
  Alcotest.(check int) "under capacity: no regrowth" 0 (Pool.Flat.regrown a);
  row.Pool.Flat.count <- 2;
  let v0 = row.Pool.Flat.versions and s0 = row.Pool.Flat.scores in
  let buf1 = Pool.Flat.ensure a row 5 in
  Alcotest.(check int) "geometric: 2 -> 8" 8 (Array.length buf1);
  Alcotest.(check bool) "fresh tasks array" true (buf0 != buf1);
  Alcotest.(check bool) "fresh versions array" true (v0 != row.Pool.Flat.versions);
  Alcotest.(check bool) "fresh scores array" true (s0 != row.Pool.Flat.scores);
  Alcotest.(check int) "count reset on regrowth" 0 row.Pool.Flat.count;
  Alcotest.(check int) "one regrowth event" 1 (Pool.Flat.regrown a);
  Alcotest.(check int) "capacity gauge follows" 8 (Pool.Flat.capacity a);
  let buf2 = Pool.Flat.ensure a row 8 in
  Alcotest.(check bool) "fit request: same buffer" true (buf1 == buf2);
  Alcotest.(check int) "fit request: no event" 1 (Pool.Flat.regrown a);
  (* a second row regrowing to a smaller size must not shrink the gauge *)
  ignore (Pool.Flat.ensure a a.Pool.Flat.rows.(1) 3);
  Alcotest.(check int) "capacity gauge is a max" 8 (Pool.Flat.capacity a)

(* The high-water mark is a max, and [Feasibility.filter_into] fills a
   row with exactly the boxed [candidate_pool], in its ready-list order,
   regrowing the row when the ready set outgrows it. *)
let test_flat_occupancy_and_filter_fill () =
  let wl = Testlib.small_workload () in
  let a =
    Pool.Flat.create ~initial_capacity:1 ~feas_mode:Feasibility.Conservative wl
  in
  Pool.Flat.note_occupancy a 7;
  Pool.Flat.note_occupancy a 3;
  Alcotest.(check int) "hwm is a max" 7 (Pool.Flat.hwm a);
  let sched = Schedule.create wl in
  let row = a.Pool.Flat.rows.(0) in
  let counts = { Feasibility.admitted = 0; checked = 0 } in
  let n =
    Feasibility.filter_into ~obs:Agrid_obs.Sink.noop a.Pool.Flat.memo sched
      ~machine:0 ~eligible:(fun _ -> true)
      ~dst:(Pool.Flat.ensure a row (Schedule.n_ready sched))
      counts
  in
  let admitted = counts.Feasibility.admitted
  and checked = counts.Feasibility.checked in
  let boxed = Feasibility.candidate_pool sched ~machine:0 in
  Alcotest.(check (list int)) "fill = candidate_pool, same order" boxed
    (Array.to_list (Array.sub row.Pool.Flat.tasks 0 n));
  Alcotest.(check int) "admitted = pool with everything eligible" n admitted;
  Alcotest.(check int) "checked = ready set"
    (List.length (Schedule.ready_unmapped sched))
    checked;
  Alcotest.(check bool) "a multi-root ready set regrew the row" true
    (checked <= 1 || Pool.Flat.regrown a > 0)

(* On-demand selection against the boxed comparator: the rescan path's
   [List.sort] by (score desc, task asc). Pools are drawn with distinct
   task ids, sizes 0-80 and scores from a small pool of values with
   repeats, signed zeros and NaN. For every k, selecting through
   position k from a fresh reset must give the sorted list's first k+1
   entries, and the rows must keep their fill order. *)
let list_sort_order tasks scores =
  List.init (Array.length tasks) (fun i -> (tasks.(i), scores.(i)))
  |> List.sort (fun (t1, s1) (t2, s2) ->
         match Float.compare s2 s1 with 0 -> compare t1 t2 | c -> c)
  |> List.map fst

let load_pool a row tasks scores =
  let n = Array.length tasks in
  ignore (Pool.Flat.ensure a row n);
  Array.blit tasks 0 row.Pool.Flat.tasks 0 n;
  Array.blit scores 0 row.Pool.Flat.scores 0 n;
  Pool.Flat.reset_order a n

let pool_gen =
  let open QCheck2.Gen in
  let score =
    oneofl [ 0.; -0.; 0.25; 0.5; -0.125; 1e-300; Float.nan; Float.infinity ]
  in
  int_range 0 80 >>= fun n ->
  shuffle_a (Array.init 200 Fun.id) >>= fun ids ->
  array_size (return n) score >|= fun scores -> (Array.sub ids 0 n, scores)

let flat_selection_matches_list_sort =
  (* 128 tasks: the shared order scratch holds the largest pools drawn *)
  let wl =
    Workload.build (Spec.scaled ~seed:7 ~factor:0.125 ()) ~etc_index:0 ~dag_index:0
      ~case:Agrid_platform.Grid.A
  in
  let a = Pool.Flat.create ~feas_mode:Feasibility.Conservative wl in
  let row = a.Pool.Flat.rows.(0) in
  Testlib.qcheck_case ~count:300 "flat selection = List.sort prefix (qcheck)"
    pool_gen (fun (tasks, scores) ->
      let n = Array.length tasks in
      let expected = Array.of_list (list_sort_order tasks scores) in
      let ok = ref true in
      for k = 0 to n - 1 do
        load_pool a row tasks scores;
        ignore (Pool.Flat.nth a row ~n k);
        for i = 0 to k do
          if row.Pool.Flat.tasks.(a.Pool.Flat.order.(i)) <> expected.(i) then ok := false
        done;
        if Array.sub row.Pool.Flat.tasks 0 n <> tasks then ok := false
      done;
      !ok)

(* The fixed pool the sorting arena was first checked on: selecting every
   position in turn yields the whole permutation, which must equal the
   rescan path's [List.sort] order. *)
let test_flat_sort_matches_list_sort () =
  let wl = Testlib.small_workload () in
  let a = Pool.Flat.create ~feas_mode:Feasibility.Conservative wl in
  let row = a.Pool.Flat.rows.(0) in
  let tasks = [| 5; 2; 9; 7; 3; 8 |] in
  let scores = [| 0.25; 0.5; 0.25; -0.125; 0.5; 0.25 |] in
  let n = Array.length tasks in
  load_pool a row tasks scores;
  let got = List.init n (fun i -> row.Pool.Flat.tasks.(Pool.Flat.nth a row ~n i)) in
  Alcotest.(check (list int)) "permutation = List.sort order"
    (list_sort_order tasks scores) got;
  Alcotest.(check (list int)) "rows keep fill order" (Array.to_list tasks)
    (Array.to_list (Array.sub row.Pool.Flat.tasks 0 n))

(* SLRH-2 walks one stale pool again after each commit, without a fresh
   selection: the second walk must read the first walk's positions
   unchanged and select the rest on demand, so both walks see the sorted
   order. *)
let test_flat_selection_walked_twice () =
  let wl = Testlib.small_workload () in
  let a = Pool.Flat.create ~feas_mode:Feasibility.Conservative wl in
  let row = a.Pool.Flat.rows.(0) in
  let tasks = [| 5; 2; 9; 7; 3; 8; 11; 0 |] in
  let scores = [| 0.25; 0.5; 0.25; -0.125; 0.5; 0.25; Float.nan; -0. |] in
  let n = Array.length tasks in
  load_pool a row tasks scores;
  let walk upto = List.init upto (fun i -> row.Pool.Flat.tasks.(Pool.Flat.nth a row ~n i)) in
  let expected = list_sort_order tasks scores in
  let first = walk 3 in
  Alcotest.(check (list int)) "first walk: sorted prefix" (List.filteri (fun i _ -> i < 3) expected) first;
  Alcotest.(check (list int)) "second walk: the whole sorted order" expected (walk n);
  Alcotest.(check (list int)) "rows keep fill order" (Array.to_list tasks)
    (Array.to_list (Array.sub row.Pool.Flat.tasks 0 n))

let test_upper_bound_monotone_in_tau () =
  let etc = Testlib.diamond_etc () in
  let grid = Agrid_platform.Grid.of_case Agrid_platform.Grid.A in
  let b t = (Upper_bound.compute ~etc ~grid ~tau_seconds:t).Upper_bound.t100_bound in
  Alcotest.(check bool) "monotone" true (b 5. <= b 50. && b 50. <= b 500.)

let suites =
  [
    ( "core",
      [
        Alcotest.test_case "weights construction" `Quick test_weights_construction;
        Alcotest.test_case "objective formula" `Quick test_objective_formula;
        Alcotest.test_case "objective monotonicity" `Quick test_objective_monotonicity;
        Alcotest.test_case "objective bounded (qcheck)" `Quick test_objective_bounded;
        Alcotest.test_case "estimate = exact for root" `Quick test_estimate_vs_after_plan;
        Alcotest.test_case "best version default" `Quick
          test_best_version_prefers_primary_when_cheap;
        Alcotest.test_case "best version beta-dominant" `Quick
          test_best_version_beta_dominant;
        Alcotest.test_case "AET sign paper claim" `Quick test_aet_sign_paper_claim;
        Alcotest.test_case "AET sign value" `Quick test_aet_sign_value;
        Alcotest.test_case "machine order variants" `Quick
          test_machine_order_variants_validate;
        Alcotest.test_case "pool: root only" `Quick test_feasibility_pool_root_only;
        Alcotest.test_case "pool: energy gate" `Quick test_feasibility_energy_gate;
        Alcotest.test_case "required energy" `Quick test_feasibility_required_energy;
        Alcotest.test_case "conservative >= optimistic" `Quick
          test_feasibility_conservative_stricter;
        Alcotest.test_case "SLRH-1 completes+validates" `Quick
          test_slrh1_completes_and_validates;
        Alcotest.test_case "SLRH-3 completes+validates" `Quick
          test_slrh3_completes_and_validates;
        Alcotest.test_case "SLRH-2 structurally valid" `Quick test_slrh2_runs;
        Alcotest.test_case "SLRH deterministic" `Quick test_slrh_deterministic;
        Alcotest.test_case "SLRH all cases" `Quick test_slrh_all_cases;
        Alcotest.test_case "SLRH horizon discipline" `Quick test_slrh_respects_horizon_start;
        Alcotest.test_case "SLRH stats consistent" `Quick test_slrh_stats_consistent;
        Alcotest.test_case "SLRH param validation" `Quick test_slrh_param_validation;
        Alcotest.test_case "SLRH infeasible stops at tau" `Quick
          test_slrh_infeasible_stops_at_tau;
        Alcotest.test_case "min ratio reference" `Quick test_min_ratio_reference;
        Alcotest.test_case "upper bound: all fit" `Quick test_upper_bound_all_fit;
        Alcotest.test_case "upper bound: cycle-limited" `Quick
          test_upper_bound_cycle_limited;
        Alcotest.test_case "upper bound: energy-limited" `Quick
          test_upper_bound_energy_limited;
        Alcotest.test_case "upper bound dominates heuristics" `Quick
          test_upper_bound_dominates_heuristics;
        Alcotest.test_case "flat arena construction" `Quick test_flat_create;
        Alcotest.test_case "flat arena regrowth: fresh arrays, geometric"
          `Quick test_flat_regrowth;
        Alcotest.test_case "flat arena occupancy + filter fill" `Quick
          test_flat_occupancy_and_filter_fill;
        Alcotest.test_case "flat sort permutation = List.sort order" `Quick
          test_flat_sort_matches_list_sort;
        flat_selection_matches_list_sort;
        Alcotest.test_case "flat selection: SLRH-2 walks one pool twice" `Quick
          test_flat_selection_walked_twice;
        Alcotest.test_case "upper bound monotone in tau" `Quick
          test_upper_bound_monotone_in_tau;
        Alcotest.test_case "qcheck random scenarios sound" `Slow
          test_qcheck_random_scenarios_sound;
      ] );
  ]
