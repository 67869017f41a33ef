open Agrid_core
open Agrid_tuner

(* ---- grids ---- *)

let test_simplex_grid_count () =
  (* step 0.1: 11 + 10 + ... + 1 = 66 points *)
  Alcotest.(check int) "66 points" 66 (List.length (Weight_search.simplex_grid ~step:0.1));
  Alcotest.(check int) "step 0.5 -> 6" 6 (List.length (Weight_search.simplex_grid ~step:0.5));
  Alcotest.(check int) "step 1 -> 3" 3 (List.length (Weight_search.simplex_grid ~step:1.0))

let test_simplex_grid_valid_points () =
  List.iter
    (fun (a, b) ->
      if a < 0. || b < 0. || a +. b > 1. +. 1e-9 then
        Alcotest.failf "invalid simplex point (%g, %g)" a b)
    (Weight_search.simplex_grid ~step:0.1)

(* The fine grid [search] walks, read through a fake runner that is
   feasible only at [centre], so the coarse sweep picks it as the centre:
   the points evaluated after the 66-point coarse sweep. *)
let refinement_points ~centre:(ca, cb) =
  let calls = ref [] in
  let runner (w : Objective.weights) _ =
    let a = w.Objective.alpha and b = w.Objective.beta in
    calls := (a, b) :: !calls;
    {
      Weight_search.weights = w;
      t100 = 1;
      aet = 0;
      tec = 0.;
      feasible = Float.abs (a -. ca) < 1e-9 && Float.abs (b -. cb) < 1e-9;
      wall_seconds = 0.;
    }
  in
  ignore
    (Weight_search.search ~coarse_step:0.1 ~fine_step:0.02 ~fine_radius:0.04 runner
       (Testlib.small_workload ()));
  List.filteri (fun i _ -> i >= 66) (List.rev !calls)

let test_refinement_grid_clipped () =
  let pts = refinement_points ~centre:(1.0, 0.0) in
  List.iter
    (fun (a, b) ->
      if a < 0. || b < 0. || a +. b > 1. +. 1e-9 then
        Alcotest.failf "refinement point (%g, %g) outside simplex" a b)
    pts;
  Alcotest.(check bool) "nonempty" true (pts <> [])

let test_refinement_grid_contains_centre () =
  let pts = refinement_points ~centre:(0.4, 0.3) in
  Alcotest.(check bool) "centre present" true
    (List.exists (fun (a, b) -> Float.abs (a -. 0.4) < 1e-9 && Float.abs (b -. 0.3) < 1e-9) pts)

let test_better_ordering () =
  let mk t100 tec aet =
    {
      Weight_search.weights = Objective.make_weights ~alpha:0.3 ~beta:0.3;
      t100;
      aet;
      tec;
      feasible = true;
      wall_seconds = 0.;
    }
  in
  Alcotest.(check bool) "t100 dominates" true (Weight_search.better (mk 5 9. 9) (mk 4 1. 1));
  Alcotest.(check bool) "tec breaks ties" true (Weight_search.better (mk 5 1. 9) (mk 5 2. 1));
  Alcotest.(check bool) "aet last" true (Weight_search.better (mk 5 1. 1) (mk 5 1. 2))

(* ---- search on a real scenario ---- *)

let small_search heuristic =
  let wl = Testlib.small_workload () in
  let runner =
    match heuristic with
    | `Slrh -> Weight_search.slrh_runner Slrh.V1
    | `Maxmax -> Weight_search.maxmax_runner
  in
  Weight_search.search ~coarse_step:0.25 ~fine_step:0.125 ~fine_radius:0.25 runner wl

let test_search_finds_feasible_slrh () =
  let r = small_search `Slrh in
  match r.Weight_search.best with
  | None -> Alcotest.fail "no feasible point found for SLRH-1"
  | Some best ->
      Alcotest.(check bool) "best is feasible" true best.Weight_search.feasible;
      Alcotest.(check bool) "T100 positive" true (best.Weight_search.t100 > 0);
      Alcotest.(check bool) "evaluations counted" true (r.Weight_search.evaluations > 0)

let test_search_finds_feasible_maxmax () =
  let r = small_search `Maxmax in
  match r.Weight_search.best with
  | None -> Alcotest.fail "no feasible point found for Max-Max"
  | Some best -> Alcotest.(check bool) "feasible" true best.Weight_search.feasible

let test_search_best_dominates_feasible_points () =
  (* re-running the runner at any feasible point must not beat the best *)
  let wl = Testlib.small_workload () in
  let runner = Weight_search.slrh_runner Slrh.V1 in
  let r = Weight_search.search ~coarse_step:0.25 ~fine_step:0.25 ~fine_radius:0.25 runner wl in
  match r.Weight_search.best with
  | None -> Alcotest.fail "no feasible point"
  | Some best ->
      List.iter
        (fun (alpha, beta) ->
          let candidate = runner (Objective.make_weights ~alpha ~beta) wl in
          if candidate.Weight_search.feasible && Weight_search.better candidate best then
            Alcotest.failf "point (%g,%g) beats reported best" alpha beta)
        r.Weight_search.feasible_points

let test_search_no_feasible_gives_none () =
  let spec = { (Testlib.diamond_spec ()) with Agrid_workload.Spec.battery_scale = 1e-9 } in
  let wl =
    Agrid_workload.Workload.build spec ~etc:(Testlib.diamond_etc ())
      ~dag:(Testlib.diamond_dag ()) ~data_bits:(Testlib.diamond_data ()) ~etc_index:0
      ~dag_index:0 ~case:Agrid_platform.Grid.A
  in
  let r =
    Weight_search.search ~coarse_step:0.5 ~fine_step:0.5 ~fine_radius:0.5
      (Weight_search.slrh_runner Slrh.V1) wl
  in
  Alcotest.(check bool) "no best" true (r.Weight_search.best = None);
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "no feasible points" []
    r.Weight_search.feasible_points

(* ---- sweeps ---- *)

let test_delta_t_sweep () =
  let wl = Testlib.small_workload () in
  let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  let pts = Sweep.delta_t ~weights ~values:[ 5; 50; 500 ] wl in
  Alcotest.(check (list int)) "values recorded" [ 5; 50; 500 ]
    (List.map (fun p -> p.Sweep.value) pts);
  List.iter
    (fun p -> Alcotest.(check bool) "wall nonnegative" true (p.Sweep.wall_seconds >= 0.))
    pts

let test_delta_t_large_degrades () =
  (* a delta_t as large as tau leaves one mapping round: T100 collapses *)
  let wl = Testlib.small_workload () in
  let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  match Sweep.delta_t ~weights ~values:[ 10; Agrid_workload.Workload.tau wl ] wl with
  | [ fine; coarse ] ->
      Alcotest.(check bool) "coarse completes less or equal" true
        (coarse.Sweep.t100 <= fine.Sweep.t100);
      Alcotest.(check bool) "coarse incomplete" true (not coarse.Sweep.completed)
  | _ -> Alcotest.fail "expected two points"

let test_horizon_sweep () =
  let wl = Testlib.small_workload () in
  let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  let pts = Sweep.horizon ~weights ~values:[ 50; 100; 400 ] wl in
  Alcotest.(check int) "three points" 3 (List.length pts);
  (* paper: H has negligible impact -- all points should complete here *)
  List.iter
    (fun p -> Alcotest.(check bool) "completed" true p.Sweep.completed)
    pts

(* ---- adaptive ---- *)

let test_adaptive_finds_feasible () =
  let wl = Testlib.small_workload () in
  let r = Adaptive.tune (Weight_search.slrh_runner Slrh.V1) wl in
  (match r.Adaptive.best with
  | None -> Alcotest.fail "adaptive found nothing feasible"
  | Some b -> Alcotest.(check bool) "feasible" true b.Weight_search.feasible);
  Alcotest.(check int) "trace length" r.Adaptive.evaluations (List.length r.Adaptive.trace)

let test_adaptive_cheaper_than_grid () =
  let r = Adaptive.tune (Weight_search.slrh_runner Slrh.V1) (Testlib.small_workload ()) in
  Alcotest.(check bool) "16 evaluations" true (r.Adaptive.evaluations = 16)

let test_adaptive_trace_moves_weights () =
  let wl = Testlib.small_workload () in
  let r = Adaptive.tune (Weight_search.slrh_runner Slrh.V1) wl in
  match r.Adaptive.trace with
  | first :: _ :: _ ->
      Testlib.close "starts at init alpha" 0.3 first.Adaptive.alpha;
      let last = List.nth r.Adaptive.trace (List.length r.Adaptive.trace - 1) in
      Alcotest.(check bool) "weights moved" true
        (Float.abs (last.Adaptive.alpha -. 0.3) > 1e-9
        || Float.abs (last.Adaptive.beta -. 0.3) > 1e-9)
  | _ -> Alcotest.fail "trace too short"

let suites =
  [
    ( "tuner",
      [
        Alcotest.test_case "simplex grid count" `Quick test_simplex_grid_count;
        Alcotest.test_case "simplex grid validity" `Quick test_simplex_grid_valid_points;
        Alcotest.test_case "refinement grid clipped" `Quick test_refinement_grid_clipped;
        Alcotest.test_case "refinement grid centre" `Quick test_refinement_grid_contains_centre;
        Alcotest.test_case "better ordering" `Quick test_better_ordering;
        Alcotest.test_case "search finds feasible (SLRH)" `Quick test_search_finds_feasible_slrh;
        Alcotest.test_case "search finds feasible (Max-Max)" `Quick
          test_search_finds_feasible_maxmax;
        Alcotest.test_case "best dominates feasible points" `Quick
          test_search_best_dominates_feasible_points;
        Alcotest.test_case "no feasible -> None" `Quick test_search_no_feasible_gives_none;
        Alcotest.test_case "delta_t sweep" `Quick test_delta_t_sweep;
        Alcotest.test_case "huge delta_t degrades" `Quick test_delta_t_large_degrades;
        Alcotest.test_case "horizon sweep" `Quick test_horizon_sweep;
        Alcotest.test_case "adaptive finds feasible" `Quick test_adaptive_finds_feasible;
        Alcotest.test_case "adaptive evaluation budget" `Quick test_adaptive_cheaper_than_grid;
        Alcotest.test_case "adaptive trace" `Quick test_adaptive_trace_moves_weights;
      ] );
  ]
