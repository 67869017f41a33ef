(* Estimated-time-to-compute matrices, generated with the Gamma-distribution
   ("coefficient-of-variation based") method of [AlS00] that the paper cites:

   - each subtask i draws a baseline time q_i ~ Gamma(mean_fast, task_cv) —
     its execution time on a nominal fast machine;
   - each subtask draws an exact fast/slow speed ratio r_i uniformly (the
     paper: "fast machines, on average, executed roughly ten times faster
     ... the exact ratio was determined randomly for each subtask");
   - each entry ETC(i,j) ~ Gamma(mean = q_i * s_j(i), cv = machine_cv) with
     s_j(i) = 1 for fast machines and r_i for slow machines.

   Matrices are generated once over the full Case A machine set (machine 0
   is the reference fast machine) and reused for Cases B and C by dropping a
   column, exactly as the paper constructs its cases by "eliminating" a
   machine. *)

open Agrid_prng
open Agrid_platform

type params = {
  n_tasks : int;
  mean_fast : float;  (** mean execution seconds on a fast machine *)
  task_cv : float;  (** heterogeneity of task baseline times *)
  machine_cv : float;  (** per-(task,machine) gamma noise *)
  ratio_lo : float;  (** fast/slow ratio lower bound *)
  ratio_hi : float;  (** fast/slow ratio upper bound *)
}

(* Defaults calibrated (see DESIGN.md section 3 and test/test_etc.ml) so
   that at |T| = 1024 the pooled subtask mean over the Case A machine mix is
   ~131 s and the Table 3 minimum-relative-speed statistics land in the
   paper's band (fast MR well below 1, slow MR of a few). *)
let default_params ~n_tasks =
  {
    n_tasks;
    mean_fast = 131. /. 5.5;
    task_cv = 0.4;
    machine_cv = 0.29;
    ratio_lo = 3.;
    ratio_hi = 17.;
  }

let validate_params p =
  if p.n_tasks <= 0 then invalid_arg "Etc: n_tasks must be positive";
  if p.mean_fast <= 0. then invalid_arg "Etc: mean_fast must be positive";
  if p.task_cv <= 0. || p.machine_cv <= 0. then
    invalid_arg "Etc: coefficients of variation must be positive";
  if p.ratio_lo < 1. || p.ratio_hi < p.ratio_lo then
    invalid_arg "Etc: need 1 <= ratio_lo <= ratio_hi"

type t = {
  seconds : float array array; (* seconds.(i).(j) *)
  klasses : Machine.klass array;
}

let n_tasks t = Array.length t.seconds
let n_machines t = Array.length t.klasses
let seconds t ~task ~machine = t.seconds.(task).(machine)
let row t i = t.seconds.(i)
let klass t ~machine = t.klasses.(machine)
let klasses t = t.klasses

let of_matrix ~klasses seconds =
  let m = Array.length klasses in
  if Array.length seconds = 0 then invalid_arg "Etc.of_matrix: no tasks";
  Array.iter
    (fun (row : float array) ->
      if Array.length row <> m then invalid_arg "Etc.of_matrix: ragged matrix";
      (* a loop, not [Array.iter]: the polymorphic iterator boxes each float *)
      for j = 0 to m - 1 do
        if not (row.(j) > 0.) then invalid_arg "Etc.of_matrix: nonpositive entry"
      done)
    seconds;
  { seconds; klasses }

let generate rng (p : params) ~klasses =
  validate_params p;
  if Array.length klasses = 0 then invalid_arg "Etc.generate: no machines";
  let seconds =
    Array.init p.n_tasks (fun _ ->
        let q = Dist.gamma_mean_cv rng ~mean:p.mean_fast ~cv:p.task_cv in
        let ratio =
          if p.ratio_hi > p.ratio_lo then
            Dist.uniform rng ~lo:p.ratio_lo ~hi:p.ratio_hi
          else p.ratio_lo
        in
        Array.map
          (fun k ->
            let mean =
              match (k : Machine.klass) with
              | Fast -> q
              | Slow -> q *. ratio
            in
            Dist.gamma_mean_cv rng ~mean ~cv:p.machine_cv)
          klasses)
  in
  { seconds; klasses }

(* Column subset, preserving order — Cases B and C are column restrictions
   of the Case A matrix. A matrix is never mutated after construction, so
   keeping every column in order shares [t]. *)
let restrict t ~columns =
  Array.iter
    (fun j ->
      if j < 0 || j >= n_machines t then invalid_arg "Etc.restrict: bad column")
    columns;
  let k = Array.length columns in
  let identity = ref (k = n_machines t) in
  Array.iteri (fun i j -> if i <> j then identity := false) columns;
  if !identity then t
  else
    {
      seconds =
        Array.map
          (fun row ->
            let out = Array.make k 0. in
            for i = 0 to k - 1 do
              out.(i) <- row.(columns.(i))
            done;
            out)
          t.seconds;
      klasses = Array.map (fun j -> t.klasses.(j)) columns;
    }

(* Which Case A columns each configuration keeps: Case B drops the last
   slow machine, Case C drops the second fast machine, so machine 0 (the
   upper-bound reference) is always retained. *)
let case_columns = function
  | Grid.A -> [| 0; 1; 2; 3 |]
  | Grid.B -> [| 0; 1; 2 |]
  | Grid.C -> [| 0; 2; 3 |]

let for_case t case = restrict t ~columns:(case_columns case)

let mean t =
  let acc = ref 0. and count = ref 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          acc := !acc +. v;
          incr count)
        row)
    t.seconds;
  !acc /. float_of_int !count

let pp ppf t =
  Fmt.pf ppf "etc<%dx%d, mean %.1fs>" (n_tasks t) (n_machines t) (mean t)
