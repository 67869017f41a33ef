(* On-the-fly Lagrangian multiplier adjustment — the paper's stated future
   work ("the heuristic was particularly sensitive to the T100 multiplier,
   thereby indicating that this value requires adjustment whenever the
   system environment changes", Section VIII).

   A subgradient-flavoured outer loop replaces the exhaustive grid search:
   starting from any (alpha, beta), each iteration runs the heuristic and
   moves the weights along the constraint-violation signal —

   - AET > tau      : the time constraint binds -> shift weight from alpha
                      (primary reward) toward beta/gamma;
   - energy violated or incomplete: the energy constraint binds -> grow
                      beta at alpha's expense;
   - feasible       : push alpha up (more primaries) with a decaying step,
                      keeping the best feasible point seen.

   This converges to the feasible/infeasible boundary where T100 is
   maximised, typically in 10-20 runs versus ~190 for the grid search;
   bench/main.exe contains the comparison (ablation "adaptive"). *)

open Agrid_core
open Agrid_workload

type step = {
  iteration : int;
  alpha : float;
  beta : float;
  t100 : int;
  aet : int;
  feasible : bool;
}

type result = {
  best : Weight_search.run_result option;
  trace : step list;
  evaluations : int;
}

(* The projected-step primitives are shared with the in-run controller
   (Agrid_core.Adapt): same simplex projection, same c/sqrt(round)
   schedule — this outer loop is the offline, between-runs instance of
   the same dual ascent. *)
let clamp_simplex = Agrid_lagrange.Dual.clamp_simplex

(* Step-size constant c of the c/sqrt(round) schedule. *)
let eta = 0.15

(* Runs per tuning, and the starting (alpha, beta). *)
let iterations = 16
let init = (0.3, 0.3)

let tune (runner : Weight_search.runner) workload =
  let tau = Workload.tau workload in
  let best = ref None in
  let trace = ref [] in
  let a = ref (fst (clamp_simplex init)) and b = ref (snd (clamp_simplex init)) in
  for k = 0 to iterations - 1 do
    let step_size = Agrid_lagrange.Dual.step_size ~c:eta ~round:(k + 1) in
    let r = runner (Objective.make_weights ~alpha:!a ~beta:!b) workload in
    trace :=
      {
        iteration = k;
        alpha = !a;
        beta = !b;
        t100 = r.Weight_search.t100;
        aet = r.Weight_search.aet;
        feasible = r.Weight_search.feasible;
      }
      :: !trace;
    if r.Weight_search.feasible then begin
      (match !best with
      | Some prev when not (Weight_search.better r prev) -> ()
      | _ -> best := Some r);
      (* feasible: reward primaries harder *)
      let a', b' = clamp_simplex (!a +. step_size, !b -. (step_size /. 2.)) in
      a := a';
      b := b'
    end
    else if r.Weight_search.aet > tau then begin
      (* time constraint binding: damp the primary reward *)
      let a', b' = clamp_simplex (!a -. step_size, !b +. (step_size /. 2.)) in
      a := a';
      b := b'
    end
    else begin
      (* energy bound (or starvation): grow the energy penalty *)
      let a', b' = clamp_simplex (!a -. (step_size /. 2.), !b +. step_size) in
      a := a';
      b := b'
    end
  done;
  { best = !best; trace = List.rev !trace; evaluations = iterations }

let pp_step ppf s =
  Fmt.pf ppf "it=%d a=%.3f b=%.3f T100=%d AET=%d feasible=%b" s.iteration s.alpha
    s.beta s.t100 s.aet s.feasible
