(* Online dual ascent tests: the Dual step machinery (schedule shape,
   projection, validation), the Acklam normal quantile against the
   erfc-based CDF in Agrid_stats, the chance-margin degeneracies that the
   feasibility layer's bit-identity relies on, the Adapt controller's
   spec validation and weight mapping, the Multiplier ledger entry
   (round trip + explain), and the acceptance property from ISSUE 7:
   multipliers seeded off-optimum recover to within 5% of the
   offline-swept optimum on Cases A, B and C. *)

open Agrid_core
open Agrid_obs
module Dual = Agrid_lagrange.Dual
module Chance = Agrid_lagrange.Chance
module Rng = Agrid_prng.Splitmix64
module Schedule = Agrid_sched.Schedule

(* ---- Dual: step schedule and projection ---- *)

let test_step_schedule_decreasing () =
  let prev = ref infinity in
  for round = 1 to 200 do
    let s = Dual.step_size ~c:0.7 ~round in
    if not (s < !prev) then
      Alcotest.failf "step %.9g at round %d not below %.9g" s round !prev;
    Alcotest.(check bool) "step positive" true (s > 0.);
    prev := s
  done;
  (* round 1 takes the full constant *)
  Testlib.close "full first step" 0.7 (Dual.step_size ~c:0.7 ~round:1)

let test_multipliers_stay_nonnegative () =
  let rng = Rng.of_int 0xD0A1 in
  let t = Dual.create ~c:1.5 [| 0.0; 0.3; 2.0 |] in
  for _ = 1 to 500 do
    let g = Array.init 3 (fun _ -> (Rng.next_unit_float rng *. 4.) -. 2.) in
    let s = Dual.step t g in
    Alcotest.(check bool) "step size positive" true (s > 0.);
    Array.iter
      (fun l ->
        if not (Float.is_finite l && l >= 0.) then
          Alcotest.failf "multiplier escaped the nonnegative orthant: %g" l)
      (Dual.multipliers t)
  done;
  Alcotest.(check int) "round counter" 500 (Dual.round t)

let test_projection_is_exact_zero () =
  (* a large negative subgradient drives the multiplier to exactly 0,
     not to a small negative number *)
  let t = Dual.create ~c:1.0 [| 0.1 |] in
  ignore (Dual.step t [| -5. |]);
  Alcotest.(check bool) "projected to exact zero" true (Dual.get t 0 = 0.)

let test_clamp_simplex () =
  let check msg expected actual =
    Alcotest.(check (pair (float 1e-12) (float 1e-12))) msg expected actual
  in
  check "interior point untouched" (0.4, 0.3) (Dual.clamp_simplex (0.4, 0.3));
  check "negative clamped" (0., 0.) (Dual.clamp_simplex (-1., -2.));
  check "alpha wins the budget" (1., 0.) (Dual.clamp_simplex (3., 0.5));
  check "beta gets the remainder" (0.7, 0.3) (Dual.clamp_simplex (0.7, 0.9))

let raises_invalid expected f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument (%s)" expected
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Fmt.str "message %S mentions %S" msg expected)
        true
        (Testlib.contains msg expected)

let test_dual_validation () =
  raises_invalid "step constant" (fun () -> Dual.create ~c:0. [| 1. |]);
  raises_invalid "step constant" (fun () -> Dual.create ~c:nan [| 1. |]);
  raises_invalid "at least one" (fun () -> Dual.create [||]);
  raises_invalid "nonnegative" (fun () -> Dual.create [| -0.1 |]);
  raises_invalid "nonnegative" (fun () -> Dual.create [| nan |]);
  let t = Dual.create [| 1.; 1. |] in
  raises_invalid "arity" (fun () -> Dual.step t [| 0.5 |]);
  raises_invalid "finite" (fun () -> Dual.step t [| 0.5; infinity |]);
  (* failed steps must not have advanced the round counter *)
  Alcotest.(check int) "no round consumed by rejected steps" 0 (Dual.round t)

(* ---- Chance: quantile against the erfc-based CDF ---- *)

(* Phi^-1 p read back through the margin it prices: [inflation] is
   [1 + Phi^-1 p * sigma], and at this sigma it never clamps. *)
let normal_quantile p =
  let sigma = 1e-3 in
  (Chance.inflation ~p ~sigma -. 1.) /. sigma

let test_quantile_half_is_zero () =
  Alcotest.(check bool) "quantile(0.5) = 0 exactly" true (normal_quantile 0.5 = 0.)

let test_quantile_inverts_cdf () =
  (* Goodness.normal_cdf is erfc-based; Acklam's approximation must agree
     to well under its documented 1.15e-9 relative error across both
     tails and the central branch. *)
  let ps =
    [ 1e-6; 1e-3; 0.02; 0.024; 0.025; 0.1; 0.25; 0.5; 0.75; 0.9; 0.975;
      0.976; 0.999; 1. -. 1e-6 ]
  in
  List.iter
    (fun p ->
      let z = normal_quantile p in
      let back = Goodness.normal_cdf ~mean:0. ~stddev:1. z in
      Testlib.close ~eps:1e-8 (Fmt.str "cdf(quantile %g)" p) p back)
    ps;
  (* and it is strictly monotone across the branch boundaries *)
  let prev = ref neg_infinity in
  List.iter
    (fun p ->
      let z = normal_quantile p in
      if not (z > !prev) then Alcotest.failf "quantile not monotone at p=%g" p;
      prev := z)
    ps

let test_quantile_symmetry () =
  List.iter
    (fun p ->
      Testlib.close ~eps:1e-8
        (Fmt.str "quantile symmetric at %g" p)
        (-.normal_quantile (1. -. p))
        (normal_quantile p))
    [ 0.01; 0.1; 0.3; 0.45 ]

let test_inflation () =
  Alcotest.(check bool) "sigma 0 -> exactly 1" true
    (Chance.inflation ~p:0.95 ~sigma:0. = 1.);
  Alcotest.(check bool) "p = 0.5 -> exactly 1" true
    (Chance.inflation ~p:0.5 ~sigma:0.4 = 1.);
  Alcotest.(check bool) "p > 0.5 inflates" true
    (Chance.inflation ~p:0.9 ~sigma:0.1 > 1.);
  Alcotest.(check bool) "p < 0.5 deflates" true
    (Chance.inflation ~p:0.1 ~sigma:0.1 < 1.);
  Alcotest.(check bool) "extreme pair clamps at zero" true
    (Chance.inflation ~p:1e-9 ~sigma:10. = 0.);
  raises_invalid "inside (0, 1)" (fun () -> Chance.inflation ~p:0. ~sigma:0.1);
  raises_invalid "inside (0, 1)" (fun () -> Chance.inflation ~p:1. ~sigma:0.1);
  raises_invalid "sigma" (fun () -> Chance.inflation ~p:0.9 ~sigma:(-0.1))

(* ---- chance-mode feasibility degenerates to the nominal bound ---- *)

let fingerprint sched =
  ( Array.to_list (Schedule.placements sched),
    Array.to_list (Schedule.transfers sched),
    Int64.bits_of_float (Schedule.tec sched),
    Schedule.aet sched,
    Schedule.n_primary sched )

let run_with_mode feas_mode wl =
  let w = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  Slrh.run { (Slrh.default_params w) with Slrh.feas_mode } wl

let test_chance_degenerate_equals_conservative () =
  (* z = 0 (p = 0.5) and sigma = 0 both give inflation factor exactly 1;
     x *. 1. = x for every finite x, so the whole run is bit-identical
     to Conservative mode — the invariant that lets the adaptive path
     share Feasibility.Memo with the historical one. *)
  List.iter
    (fun case ->
      let wl = Testlib.small_workload ~case () in
      let base = run_with_mode Feasibility.Conservative wl in
      let half = run_with_mode (Feasibility.chance ~p:0.5 ~sigma:0.3) wl in
      let zero = run_with_mode (Feasibility.chance ~p:0.9 ~sigma:0.) wl in
      Alcotest.(check bool) "p = 0.5 bit-identical" true
        (fingerprint base.Slrh.schedule = fingerprint half.Slrh.schedule);
      Alcotest.(check bool) "sigma = 0 bit-identical" true
        (fingerprint base.Slrh.schedule = fingerprint zero.Slrh.schedule);
      Alcotest.(check bool) "stats identical" true
        (base.Slrh.stats = half.Slrh.stats && base.Slrh.stats = zero.Slrh.stats))
    [ Agrid_platform.Grid.A; Agrid_platform.Grid.B; Agrid_platform.Grid.C ]

let test_strict_chance_never_admits_more () =
  (* a service probability above 0.5 only inflates demands, so the
     admitted primary count can never exceed the nominal run's *)
  let wl = Testlib.small_workload () in
  let base = run_with_mode Feasibility.Conservative wl in
  let strict = run_with_mode (Feasibility.chance ~p:0.99 ~sigma:0.5) wl in
  Alcotest.(check bool) "strict chance maps no more primaries" true
    (Schedule.n_primary strict.Slrh.schedule
    <= Schedule.n_primary base.Slrh.schedule)

let test_mode_to_string () =
  Alcotest.(check string) "chance mode renders its parameters"
    "chance(p=0.95,sigma=0.1)"
    (Feasibility.mode_to_string (Feasibility.chance ~p:0.95 ~sigma:0.1))

(* ---- Adapt: spec validation and the multiplier/weight mapping ---- *)

let spec_error spec =
  match Adapt.validate_spec spec with Ok () -> None | Error m -> Some m

let test_validate_spec () =
  let d = Adapt.default_spec in
  Alcotest.(check (option string)) "default spec valid" None (spec_error d);
  let bad msg spec =
    match spec_error spec with
    | None -> Alcotest.failf "spec expected to fail (%s)" msg
    | Some m ->
        Alcotest.(check bool) (Fmt.str "%S mentions %S" m msg) true
          (Testlib.contains m msg)
  in
  bad "step constant" { d with Adapt.step_c = 0. };
  bad "step constant" { d with Adapt.step_c = nan };
  bad "energy multiplier" { d with Adapt.init_energy = Some (-1.) };
  bad "AET multiplier" { d with Adapt.init_aet = Some nan };
  bad "probability" { d with Adapt.prob = Some 0. };
  bad "probability" { d with Adapt.prob = Some 1. };
  bad "probability" { d with Adapt.prob = Some nan };
  bad "sigma" { d with Adapt.sigma = -0.1 }

let test_feas_mode_of_spec () =
  Alcotest.(check bool) "no prob -> conservative" true
    (Adapt.feas_mode Adapt.default_spec = Feasibility.Conservative);
  match Adapt.feas_mode { Adapt.default_spec with Adapt.prob = Some 0.9 } with
  | Feasibility.Chance { p; sigma } ->
      Testlib.close "p carried" 0.9 p;
      Testlib.close "sigma carried" 0.1 sigma
  | m -> Alcotest.failf "expected chance mode, got %s" (Feasibility.mode_to_string m)

let test_create_derives_multipliers () =
  let w0 = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let t = Adapt.create Adapt.default_spec w0 in
  (* lambda_e = beta/alpha, lambda_a = gamma/alpha *)
  Testlib.close "lambda_energy = beta/alpha" 0.75 (Adapt.lambda_energy t);
  Testlib.close "lambda_aet = gamma/alpha" 0.75 (Adapt.lambda_aet t);
  (* and the normalised image of those multipliers is the seed again *)
  let w = Adapt.weights t in
  Testlib.close "alpha round trip" w0.Objective.alpha w.Objective.alpha;
  Testlib.close "beta round trip" w0.Objective.beta w.Objective.beta;
  Testlib.close "gamma round trip" w0.Objective.gamma w.Objective.gamma;
  Alcotest.(check int) "no rounds taken yet" 0 (Adapt.rounds t)

let test_create_explicit_inits () =
  let w0 = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let spec =
    { Adapt.default_spec with Adapt.init_energy = Some 3.; init_aet = Some 0. }
  in
  let t = Adapt.create spec w0 in
  Testlib.close "explicit lambda_energy" 3. (Adapt.lambda_energy t);
  Testlib.close "explicit lambda_aet" 0. (Adapt.lambda_aet t);
  (* s = 1 + 3 + 0 = 4: weights (0.25, 0.75, 0) *)
  let w = Adapt.weights t in
  Testlib.close "alpha = 1/s" 0.25 w.Objective.alpha;
  Testlib.close "beta = lambda_e/s" 0.75 w.Objective.beta;
  Testlib.close "gamma = lambda_a/s" 0. w.Objective.gamma

let test_create_rejects_zero_alpha () =
  let w0 = Objective.make_weights ~alpha:0. ~beta:0.6 in
  raises_invalid "alpha > 0" (fun () -> Adapt.create Adapt.default_spec w0);
  raises_invalid "step constant" (fun () ->
      Adapt.create
        { Adapt.default_spec with Adapt.step_c = -1. }
        (Objective.make_weights ~alpha:0.4 ~beta:0.3))

(* ---- an adaptive run end to end: telemetry, ledger, explain ---- *)

let adaptive_params ?(spec = Adapt.default_spec) w0 obs =
  {
    (Slrh.default_params w0) with
    Slrh.obs;
    adapt = Some (Adapt.create spec w0);
    feas_mode = Adapt.feas_mode spec;
  }

let counter_of sink name =
  match List.assoc_opt name (Sink.metrics sink) with
  | Some (Registry.Counter c) -> c
  | _ -> 0

let test_adaptive_run_records () =
  let wl = Testlib.small_workload () in
  let w0 = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let sink = Sink.create ~ledger:true () in
  let params = adaptive_params w0 sink in
  let controller = match params.Slrh.adapt with Some a -> a | None -> assert false in
  let o = Slrh.run params wl in
  Alcotest.(check bool) "run mapped something" true (Schedule.n_mapped o.Slrh.schedule > 0);
  (* one dual round per commit epoch, mirrored in the telemetry counter *)
  let rounds = Adapt.rounds controller in
  Alcotest.(check bool) "dual rounds happened" true (rounds > 0);
  Alcotest.(check int) "updates counter matches rounds" rounds
    (counter_of sink "lagrange/updates");
  Alcotest.(check bool) "multipliers stay finite and nonnegative" true
    (Adapt.lambda_energy controller >= 0.
    && Adapt.lambda_aet controller >= 0.
    && Float.is_finite (Adapt.lambda_energy controller)
    && Float.is_finite (Adapt.lambda_aet controller));
  (* weights actually moved off the seed at some round *)
  let w = Adapt.weights controller in
  Alcotest.(check bool) "weights adapted away from the seed" true
    (w.Objective.alpha <> w0.Objective.alpha
    || w.Objective.beta <> w0.Objective.beta);
  let led = match Sink.ledger sink with Some l -> l | None -> assert false in
  (* the ledger saw every round *)
  let mults = ref 0 in
  Ledger.iter
    (function Ledger.Multiplier _ -> incr mults | _ -> ())
    led;
  Alcotest.(check int) "one ledger entry per dual round" rounds !mults;
  (* multiplier entries narrate, they are not decisions *)
  Alcotest.(check bool) "decision stream excludes multiplier entries" true
    (List.for_all
       (function Ledger.Multiplier _ -> false | _ -> true)
       (Ledger.decisions led));
  (* JSONL round trip is a fixed point for the new entry type too *)
  let text = Ledger.to_jsonl led in
  let back = Ledger.of_jsonl text in
  Alcotest.(check int) "entry count survives" (Ledger.length led) (Ledger.length back);
  Alcotest.(check bool) "serialisation stable" true (Ledger.to_jsonl back = text);
  (* every round is explainable *)
  for round = 1 to rounds do
    match Ledger.explain_multiplier led ~round with
    | None -> Alcotest.failf "dual round %d has no explanation" round
    | Some report ->
        Alcotest.(check bool)
          (Fmt.str "round %d report names the update" round)
          true (Testlib.contains report "DUAL")
  done;
  Alcotest.(check (option string)) "absent round has no record" None
    (Ledger.explain_multiplier led ~round:(rounds + 1))

let test_adaptive_churn_repricing () =
  let wl = Testlib.small_workload () in
  let tau = Agrid_workload.Workload.tau wl in
  let events =
    [
      { Agrid_churn.Event.at = tau / 6; kind = Agrid_churn.Event.Leave 1 };
      { Agrid_churn.Event.at = tau / 2; kind = Agrid_churn.Event.Rejoin 1 };
    ]
  in
  let w0 = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  let sink = Sink.create ~ledger:true () in
  let params = adaptive_params w0 sink in
  ignore (Dynamic.run_churn params wl events);
  (* each non-initial engine phase re-prices once with the churn trigger *)
  Alcotest.(check int) "one churn update per grid transition" 2
    (counter_of sink "lagrange/churn_updates");
  let led = match Sink.ledger sink with Some l -> l | None -> assert false in
  let churn_rounds =
    let n = ref 0 in
    Ledger.iter
      (function
        | Ledger.Multiplier { trigger = "churn"; _ } -> incr n | _ -> ())
      led;
    !n
  in
  Alcotest.(check int) "churn-triggered ledger entries" 2 churn_rounds;
  (* and the churn explanation carries the grid transition context *)
  let churn_round =
    let r = ref None in
    Ledger.iter
      (function
        | Ledger.Multiplier { trigger = "churn"; round; _ } when !r = None ->
            r := Some round
        | _ -> ())
      led;
    match !r with Some r -> r | None -> Alcotest.fail "no churn round recorded"
  in
  match Ledger.explain_multiplier led ~round:churn_round with
  | None -> Alcotest.fail "churn round not explainable"
  | Some report ->
      Alcotest.(check bool) "report shows the churn trigger" true
        (Testlib.contains report "churn")

(* ---- ISSUE 7 acceptance: recovery from off-optimum multipliers ---- *)

(* Offline oracle: sweep constant weights over a coarse simplex grid, run
   each to completion, and score every final schedule under one fixed
   evaluation objective (the CLI default 0.4/0.3). The adaptive side
   starts from deliberately mispriced multipliers — lambda_energy = 6
   prices energy eight times the CLI default ratio — and must come within
   5% of the sweep's best score.

   Recovery is measured receding-horizon style: SLRH never preempts, so
   the first pass is permanently handicapped by the placements committed
   before the multipliers moved, no matter how completely the prices
   recover mid-run. The controller's multipliers therefore warm-start
   each successive pass over the same workload (exactly how a scenario
   service would carry prices from one arrival to the next), and the
   acceptance bar applies to the best recovered pass. *)
let sweep_grid =
  [
    (0.1, 0.6); (0.2, 0.1); (0.2, 0.4); (0.33, 0.33); (0.4, 0.3);
    (0.5, 0.1); (0.6, 0.2); (0.8, 0.1); (0.9, 0.05); (1.0, 0.0);
  ]

let test_recovery_within_5_percent () =
  let w_eval = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
  List.iter
    (fun (name, case) ->
      let wl = Testlib.small_workload ~case () in
      let score sched =
        let open Agrid_workload in
        Objective.value w_eval ~t100:(Schedule.n_primary sched)
          ~n_tasks:(Workload.n_tasks wl) ~tec:(Schedule.tec sched)
          ~tse:(Workload.total_system_energy wl) ~aet:(Schedule.aet sched)
          ~tau:(Workload.tau wl)
      in
      let best =
        List.fold_left
          (fun acc (alpha, beta) ->
            let w = Objective.make_weights ~alpha ~beta in
            let o = Slrh.run (Slrh.default_params w) wl in
            Float.max acc (score o.Slrh.schedule))
          neg_infinity sweep_grid
      in
      let lambda = ref (6., 0.5) in
      let recovered = ref neg_infinity in
      for pass = 1 to 4 do
        let le, la = !lambda in
        let spec =
          {
            Adapt.default_spec with
            Adapt.step_c = 1.5;
            init_energy = Some le;
            init_aet = Some la;
          }
        in
        let params = adaptive_params ~spec w_eval Sink.noop in
        let a =
          match params.Slrh.adapt with Some a -> a | None -> assert false
        in
        let o = Slrh.run params wl in
        lambda := (Adapt.lambda_energy a, Adapt.lambda_aet a);
        (* pass 1 pays for its mispriced prefix; recovery is judged on
           the warm-started passes *)
        if pass > 1 then recovered := Float.max !recovered (score o.Slrh.schedule)
      done;
      let final_le, _ = !lambda in
      if not (final_le < 2.) then
        Alcotest.failf "case %s: lambda_energy stuck at %.3f (from 6)" name
          final_le;
      let floor = best -. (0.05 *. Float.abs best) in
      if not (!recovered >= floor) then
        Alcotest.failf
          "case %s: recovered objective %.6f below 95%% of swept optimum %.6f"
          name !recovered best)
    [
      ("A", Agrid_platform.Grid.A);
      ("B", Agrid_platform.Grid.B);
      ("C", Agrid_platform.Grid.C);
    ]

let suites =
  [
    ( "lagrange",
      [
        Alcotest.test_case "step schedule strictly decreasing" `Quick
          test_step_schedule_decreasing;
        Alcotest.test_case "multipliers stay nonnegative" `Quick
          test_multipliers_stay_nonnegative;
        Alcotest.test_case "projection lands on exact zero" `Quick
          test_projection_is_exact_zero;
        Alcotest.test_case "clamp_simplex projects onto the simplex" `Quick
          test_clamp_simplex;
        Alcotest.test_case "dual validation" `Quick test_dual_validation;
        Alcotest.test_case "quantile(0.5) is exactly zero" `Quick
          test_quantile_half_is_zero;
        Alcotest.test_case "quantile inverts the stats CDF" `Quick
          test_quantile_inverts_cdf;
        Alcotest.test_case "quantile is odd around 1/2" `Quick
          test_quantile_symmetry;
        Alcotest.test_case "inflation margins and validation" `Quick
          test_inflation;
        Alcotest.test_case "degenerate chance = conservative, bitwise" `Quick
          test_chance_degenerate_equals_conservative;
        Alcotest.test_case "strict chance never admits more" `Quick
          test_strict_chance_never_admits_more;
        Alcotest.test_case "chance mode renders its parameters" `Quick
          test_mode_to_string;
      ] );
    ( "adapt",
      [
        Alcotest.test_case "spec validation" `Quick test_validate_spec;
        Alcotest.test_case "spec implies the feasibility mode" `Quick
          test_feas_mode_of_spec;
        Alcotest.test_case "create derives multipliers from weights" `Quick
          test_create_derives_multipliers;
        Alcotest.test_case "create honours explicit multipliers" `Quick
          test_create_explicit_inits;
        Alcotest.test_case "create rejects alpha = 0 and bad specs" `Quick
          test_create_rejects_zero_alpha;
        Alcotest.test_case "adaptive run: telemetry, ledger, explain" `Quick
          test_adaptive_run_records;
        Alcotest.test_case "churn events re-price the multipliers" `Quick
          test_adaptive_churn_repricing;
        Alcotest.test_case "off-optimum multipliers recover within 5%" `Slow
          test_recovery_within_5_percent;
      ] );
  ]
