(* Online Lagrangian dual ascent — the paper's stated future work ("this
   value requires adjustment whenever the system environment changes",
   Section VIII) done the way SNIPPETS.md Snippet 2 (mocasin's LRSolver)
   does it: per-constraint nonnegative multipliers stepped against
   measured constraint violation WHILE a single SLRH run unfolds, rather
   than between whole runs (that is Agrid_tuner.Adaptive's offline loop).

   The relaxation: with multipliers lambda_e (energy) and lambda_a (time
   extent), the Lagrangian "reward primaries minus priced constraints"
   objective T100/|T| - lambda_e * TEC/TSE +- lambda_a * AET/tau is, up to
   the positive scale 1/(1 + lambda_e + lambda_a), exactly the paper's
   weighted objective with

     alpha = 1/s,  beta = lambda_e/s,  gamma = lambda_a/s,
     s = 1 + lambda_e + lambda_a.

   Scaling never reorders candidates, so feeding the normalised weights
   back into Objective's unchanged score decomposition IS dual ascent on
   the paper's objective — no new scoring path, and none of the SoA
   arena's weight-independent caches (Feasibility.Memo, parent
   bounds, whole-pool reuse) need invalidating on an update: pool
   membership never reads the weights, and scoring re-reads them on every
   call (DESIGN.md section 11).

   Subgradients are measured against a pacing target at each commit epoch
   (a timestep that mapped at least one subtask) and after churn events.
   TEC and AET both accrue at commit time — a placement charges its whole
   execution the moment it is committed, well ahead of the wall clock —
   so the energy pacing reference is the committed work share mapped/|T|,
   not elapsed time (against clock/tau every early commit would read as a
   violation and the energy price could only ratchet upward). The burn
   share blends the aggregate with the most-stressed battery: batteries
   are per-machine resources, and on a heterogeneous grid the aggregate
   TEC/TSE stays slack long after the favourite machines run dry, while
   the hottest battery alone over-prices runs that sensibly concentrate
   work on the efficient machines — the mean of the two prices both the
   system budget and the bottleneck:

     g_energy = (TEC/TSE + max_j used_j/B(j)) / 2 - mapped/|T|
     g_aet    = AET/tau - 1

   The time extent needs no pacing at all: extent, unlike energy, does
   not grow per task, so AET/tau is directly comparable to the deadline
   and its residual is the overrun.

   Positive = the constraint is binding (its price rises); negative =
   slack (the price decays toward rewarding primaries). Both components
   stay within the violation histogram's [-1, 1] span except on a
   deadline overrun or a battery driven negative, which the edge buckets
   absorb. At the fixed point the blended burn share paces the committed
   work share — lambda_e settles at the shadow price of energy for this
   grid — and lambda_a decays to 0 unless the deadline is actually
   threatened. *)

open Agrid_workload
open Agrid_sched
module Dual = Agrid_lagrange.Dual

type spec = {
  step_c : float;  (* c in the c/sqrt(round) schedule *)
  init_energy : float option;  (* explicit lambda_e; None = derive from weights *)
  init_aet : float option;  (* explicit lambda_a; None = derive from weights *)
  prob : float option;  (* chance service probability; None = conservative *)
  sigma : float;  (* relative estimation error for the chance margin *)
}

let default_spec =
  { step_c = 0.5; init_energy = None; init_aet = None; prob = None; sigma = 0.1 }

(* One-line human messages: the CLI prefixes them with the subcommand and
   exits 2; the serve codec returns them as typed rejected lines. *)
let validate_spec s =
  let bad_init l = (not (Float.is_finite l)) || l < 0. in
  if (not (Float.is_finite s.step_c)) || s.step_c <= 0. then
    Error "step constant must be positive and finite"
  else if (match s.init_energy with Some l -> bad_init l | None -> false) then
    Error "initial energy multiplier must be finite and nonnegative"
  else if (match s.init_aet with Some l -> bad_init l | None -> false) then
    Error "initial AET multiplier must be finite and nonnegative"
  else if
    match s.prob with
    | Some p -> (not (Float.is_finite p)) || p <= 0. || p >= 1.
    | None -> false
  then Error "service probability must lie strictly inside (0, 1)"
  else if (not (Float.is_finite s.sigma)) || s.sigma < 0. then
    Error "sigma must be finite and nonnegative"
  else Ok ()

let feas_mode s =
  match s.prob with
  | None -> Feasibility.Conservative
  | Some p -> Feasibility.chance ~p ~sigma:s.sigma

type t = {
  dual : Dual.t;  (* [| lambda_energy; lambda_aet |] *)
  aet_sign : Objective.aet_sign;  (* carried over from the seed weights *)
  mutable weights : Objective.weights;
  mutable last_epoch : int;  (* Schedule.n_mapped at the last update *)
}

let weights_of_multipliers ~aet_sign ~lambda_energy ~lambda_aet =
  let s = 1. +. lambda_energy +. lambda_aet in
  Objective.with_aet_sign aet_sign
    (Objective.make_weights ~alpha:(1. /. s) ~beta:(lambda_energy /. s))

let create spec (w0 : Objective.weights) =
  (match validate_spec spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Adapt.create: " ^ msg));
  if w0.Objective.alpha <= 0. then
    invalid_arg "Adapt.create: seed weights need alpha > 0 to derive multipliers";
  let lambda_energy =
    match spec.init_energy with
    | Some l -> l
    | None -> w0.Objective.beta /. w0.Objective.alpha
  in
  let lambda_aet =
    match spec.init_aet with
    | Some l -> l
    | None -> w0.Objective.gamma /. w0.Objective.alpha
  in
  let dual = Dual.create ~c:spec.step_c [| lambda_energy; lambda_aet |] in
  {
    dual;
    aet_sign = w0.Objective.aet_sign;
    weights =
      weights_of_multipliers ~aet_sign:w0.Objective.aet_sign ~lambda_energy
        ~lambda_aet;
    last_epoch = 0;
  }

let weights t = t.weights
let rounds t = Dual.round t.dual
let lambda_energy t = Dual.get t.dual 0
let lambda_aet t = Dual.get t.dual 1

(* Subgradients span [-1, 1] (both terms are normalised shares). *)
let violation_bounds = Agrid_obs.Hist.linear_bounds ~lo:(-1.) ~hi:1. ~n:16

let update t ~trigger ~obs ~clock sched =
  let wl = Schedule.workload sched in
  let tau = float_of_int (Workload.tau wl) in
  let n_tasks = float_of_int (Workload.n_tasks wl) in
  let epoch = Schedule.n_mapped sched in
  let progress = float_of_int epoch /. n_tasks in
  (* hottest battery: burn share of the machine closest to depletion *)
  let hottest = ref 0. in
  for m = 0 to Workload.n_machines wl - 1 do
    let used = Schedule.energy_used sched m in
    let capacity = used +. Schedule.energy_remaining sched m in
    if capacity > 0. then hottest := Float.max !hottest (used /. capacity)
  done;
  let burn =
    0.5 *. ((Schedule.tec sched /. Workload.total_system_energy wl) +. !hottest)
  in
  let g_energy = burn -. progress in
  let extent = float_of_int (Schedule.aet sched) /. tau in
  let g_aet = extent -. 1. in
  let before = t.weights in
  let step = Dual.step t.dual [| g_energy; g_aet |] in
  let lambda_energy = Dual.get t.dual 0 and lambda_aet = Dual.get t.dual 1 in
  let after =
    weights_of_multipliers ~aet_sign:t.aet_sign ~lambda_energy ~lambda_aet
  in
  t.weights <- after;
  t.last_epoch <- epoch;
  if Agrid_obs.Sink.enabled obs then begin
    Agrid_obs.Sink.incr obs "lagrange/updates";
    if String.equal trigger "churn" then
      Agrid_obs.Sink.incr obs "lagrange/churn_updates";
    Agrid_obs.Sink.max_gauge obs "lagrange/lambda_energy" lambda_energy;
    Agrid_obs.Sink.max_gauge obs "lagrange/lambda_aet" lambda_aet;
    Agrid_obs.Sink.observe obs "lagrange/violation" ~bounds:violation_bounds
      g_energy;
    Agrid_obs.Sink.observe obs "lagrange/violation" ~bounds:violation_bounds g_aet
  end;
  match Agrid_obs.Sink.ledger obs with
  | None -> ()
  | Some led ->
      Agrid_obs.Ledger.record led
        (Agrid_obs.Ledger.Multiplier
           {
             clock;
             epoch;
             round = Dual.round t.dual;
             trigger;
             step;
             g_energy;
             g_aet;
             lambda_energy;
             lambda_aet;
             alpha_before = before.Objective.alpha;
             beta_before = before.Objective.beta;
             gamma_before = before.Objective.gamma;
             alpha = after.Objective.alpha;
             beta = after.Objective.beta;
             gamma = after.Objective.gamma;
           })

(* End-of-timestep hook: one dual round per commit epoch — a timestep
   that advanced the mapped count since the last round. Idle timesteps
   measure nothing (the schedule did not change, so neither would the
   subgradient's progress terms in a useful direction). *)
let on_timestep t ~obs ~clock sched =
  if Schedule.n_mapped sched > t.last_epoch then
    update t ~trigger:"epoch" ~obs ~clock sched

(* After-churn hook: the grid just changed under the run (battery shocks,
   leaves, rejoins), so re-price the constraints immediately even though
   no new commit happened. *)
let on_churn t ~obs ~clock sched = update t ~trigger:"churn" ~obs ~clock sched

let pp ppf t =
  Fmt.pf ppf "adapt<rounds=%d lambda=(%.4f, %.4f) %a>" (rounds t)
    (lambda_energy t) (lambda_aet t) Objective.pp_weights t.weights
