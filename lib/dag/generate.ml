(* Layered random DAG generation in the style of the [ShC04] companion paper
   (Shivle et al., "Static mapping of subtasks in a heterogeneous ad hoc grid
   environment", HCW 2004): subtasks are partitioned into levels and each
   non-root subtask draws its parents from earlier levels with a bias toward
   the immediately preceding level, which yields the mostly-forward,
   communication-dominated structures that paper describes. The exact
   generator is not public; DESIGN.md section 3 records the substitution. *)

open Agrid_prng

type params = {
  n : int;  (** number of subtasks *)
  n_levels : int;  (** target number of levels (>= 1) *)
  max_parents : int;  (** max in-degree for non-root tasks (>= 1) *)
  prev_level_bias : float;  (** probability a parent comes from level-1 *)
}

let default_params ~n =
  {
    n;
    n_levels = max 1 (int_of_float (Float.round (sqrt (float_of_int n))));
    max_parents = 3;
    prev_level_bias = 0.8;
  }

let validate_params p =
  if p.n <= 0 then invalid_arg "Generate: n must be positive";
  if p.n_levels <= 0 || p.n_levels > p.n then
    invalid_arg "Generate: n_levels must be in [1, n]";
  if p.max_parents < 1 then invalid_arg "Generate: max_parents must be >= 1";
  if p.prev_level_bias < 0. || p.prev_level_bias > 1. then
    invalid_arg "Generate: prev_level_bias outside [0,1]"

(* Partition [0, n) into [n_levels] contiguous, nonempty levels of random
   sizes. Returning contiguous index ranges means task ids are already in
   topological order, which downstream code relies on for readability of
   traces (it is not a correctness requirement). *)
let random_level_bounds rng ~n ~n_levels =
  (* one guaranteed slot per level, the rest multinomial-ish *)
  let sizes = Array.make n_levels 1 in
  for _ = 1 to n - n_levels do
    let l = Splitmix64.next_int rng n_levels in
    sizes.(l) <- sizes.(l) + 1
  done;
  let bounds = Array.make (n_levels + 1) 0 in
  for l = 0 to n_levels - 1 do
    bounds.(l + 1) <- bounds.(l) + sizes.(l)
  done;
  bounds

let generate rng (p : params) =
  validate_params p;
  if p.n_levels = 1 then Dag.of_edges ~n:p.n [] (* independent tasks *)
  else begin
    let bounds = random_level_bounds rng ~n:p.n ~n_levels:p.n_levels in
    let level_of = Array.make p.n 0 in
    for l = 0 to p.n_levels - 1 do
      for i = bounds.(l) to bounds.(l + 1) - 1 do
        level_of.(i) <- l
      done
    done;
    (* at most [max_parents] edges per non-root task; [chosen_by.(v) = i]
       marks v as already a parent of task i *)
    let cap = (p.n - bounds.(1)) * p.max_parents in
    let src = Array.make cap 0 and dst = Array.make cap 0 in
    let n_edges = ref 0 in
    let chosen_by = Array.make p.n (-1) in
    for i = bounds.(1) to p.n - 1 do
      let l = level_of.(i) in
      let n_parents = 1 + Splitmix64.next_int rng p.max_parents in
      for _ = 1 to n_parents do
        let from_prev = Dist.bernoulli rng ~p:p.prev_level_bias in
        let lo = if from_prev then bounds.(l - 1) else 0 (* any earlier level *) in
        let parent = lo + Splitmix64.next_int rng (bounds.(l) - lo) in
        if chosen_by.(parent) <> i then begin
          chosen_by.(parent) <- i;
          src.(!n_edges) <- parent;
          dst.(!n_edges) <- i;
          incr n_edges
        end
      done
    done;
    fst (Dag.of_edge_arrays ~n:p.n (Array.sub src 0 !n_edges) (Array.sub dst 0 !n_edges))
  end

(* Per-edge global data item sizes in bits, gamma distributed. The default
   mean (see Workload.Spec) is calibrated so communication energy stays a
   small fraction of compute energy, matching the paper's observation. *)
let data_sizes rng dag ~mean_bits ~cv =
  let bits = Array.make (Dag.n_edges dag) 0. in
  for e = 0 to Array.length bits - 1 do
    bits.(e) <- Dist.gamma_mean_cv rng ~mean:mean_bits ~cv
  done;
  bits
