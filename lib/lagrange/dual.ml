(* Projected subgradient ascent on the Lagrangian dual — the multiplier
   machinery SNIPPETS.md Snippet 2 (mocasin's LRSolver, after Wildermann
   et al.) implements, reduced to the two ingredients every caller here
   shares: the diminishing step schedule c/sqrt(round) and the projection
   onto the nonnegative orthant. [Agrid_core.Adapt] drives it online
   inside a single SLRH run; [Agrid_tuner.Adaptive] reuses the same step
   schedule for its offline between-runs loop, so the two adaptation
   layers cannot drift apart numerically.

   This library sits below the scheduler core on purpose: it knows
   nothing about schedules, workloads or telemetry — multipliers in,
   multipliers out. *)

(* The classic diminishing-but-not-summable schedule: guarantees dual
   convergence for convex problems and, here, bounded drift for the
   nonconvex schedule objective. [round] is 1-based: round 1 takes the
   full step [c]. *)
let step_size ~c ~round = c /. sqrt (float_of_int round)

(* Project (alpha, beta) onto the weight simplex {a, b >= 0, a + b <= 1}
   the way the offline tuner always has: clamp alpha first, then give
   beta what room remains. *)
let clamp_simplex (a, b) =
  let a = Float.max 0. (Float.min 1. a) in
  let b = Float.max 0. (Float.min (1. -. a) b) in
  (a, b)

type t = {
  c : float;  (* step constant *)
  lambda : float array;  (* current multipliers, all >= 0 *)
  mutable round : int;  (* completed subgradient rounds *)
}

let finite x = Float.is_finite x

let create ?(c = 0.5) lambda0 =
  if (not (finite c)) || c <= 0. then
    invalid_arg "Dual.create: step constant must be positive and finite";
  if Array.length lambda0 = 0 then
    invalid_arg "Dual.create: at least one multiplier is required";
  Array.iter
    (fun l ->
      if (not (finite l)) || l < 0. then
        invalid_arg "Dual.create: multipliers must be finite and nonnegative")
    lambda0;
  { c; lambda = Array.copy lambda0; round = 0 }

let round t = t.round
let get t i = t.lambda.(i)
let multipliers t = Array.copy t.lambda

(* One ascent round: lambda_k <- max(0, lambda_k + step * g_k) with
   step = c/sqrt(round). A positive subgradient means the constraint is
   violated (raise its price); negative means slack (relax it). Returns
   the step size used, for the decision ledger. *)
let step t g =
  if Array.length g <> Array.length t.lambda then
    invalid_arg "Dual.step: subgradient arity mismatch";
  Array.iter
    (fun x -> if not (finite x) then invalid_arg "Dual.step: subgradient must be finite")
    g;
  t.round <- t.round + 1;
  let s = step_size ~c:t.c ~round:t.round in
  Array.iteri (fun i l -> t.lambda.(i) <- Float.max 0. (l +. (s *. g.(i)))) t.lambda;
  s

let pp ppf t =
  Fmt.pf ppf "dual<round=%d c=%g lambda=[%a]>" t.round t.c
    Fmt.(array ~sep:(any "; ") float)
    t.lambda
