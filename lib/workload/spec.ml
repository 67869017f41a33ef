(* A scenario specification: everything needed to generate the paper's
   simulation inputs from a single seed. The paper's study is |T| = 1024
   with ten ETC matrices and ten DAGs; `scaled` shrinks |T|, tau and the
   battery capacities by one factor so the same constraints bind at demo
   scale (DESIGN.md section 3, substitution 5). *)

type t = {
  n_tasks : int;
  etc_params : Agrid_etc.Etc.params;
  dag_params : Agrid_dag.Generate.params;
  data_mean_bits : float;  (** mean global data item size, bits *)
  data_cv : float;
  secondary_fraction : float;  (** secondary version time/energy/data factor *)
  battery_scale : float;  (** multiplies every machine's B(j) *)
  tau_seconds : float;
      (** time constraint; the paper picked 34,075 s from greedy-heuristic
          experiments — [Calibrate] (in agrid_baselines) recomputes it the
          same way *)
  seed : int;
}

(* The paper's full-scale study. tau is the paper's constant; battery and
   data parameters per Table 2 discussion. *)
let paper_scale ?(seed = 2004) () =
  {
    n_tasks = 1024;
    etc_params = Agrid_etc.Etc.default_params ~n_tasks:1024;
    dag_params = Agrid_dag.Generate.default_params ~n:1024;
    data_mean_bits = 4e5;
    data_cv = 0.5;
    secondary_fraction = 0.1;
    battery_scale = 1.;
    tau_seconds = 34_075.;
    seed;
  }

(* Proportional shrink: |T|, tau, B(j) and the DAG depth all scale by
   [factor], preserving which constraints bind (energy on fast machines,
   time on slow ones) AND the critical-path-to-tau ratio. The paper's
   structure is 1024 tasks in ~32 levels, so levels scale as n/32 (= sqrt n
   at full scale); with sqrt-n levels instead, a shrunk workload's chain of
   slow-machine primaries would overrun the shrunk tau. *)
let scaled ?seed ~factor () =
  if factor <= 0. || factor > 1. then
    invalid_arg "Spec.scaled: factor must be in (0, 1]";
  let base = paper_scale ?seed () in
  let n_tasks = max 8 (int_of_float (Float.round (float_of_int base.n_tasks *. factor))) in
  let f = float_of_int n_tasks /. float_of_int base.n_tasks in
  let n_levels =
    max 2 (int_of_float (Float.round (float_of_int n_tasks /. 32.)))
  in
  {
    base with
    n_tasks;
    etc_params = { (Agrid_etc.Etc.default_params ~n_tasks) with n_tasks };
    dag_params =
      { (Agrid_dag.Generate.default_params ~n:n_tasks) with Agrid_dag.Generate.n_levels };
    battery_scale = f;
    tau_seconds = base.tau_seconds *. f;
  }

(* Demo scale used by default in examples and benches: |T| = 128. *)
let default ?seed () = scaled ?seed ~factor:0.125 ()

let tau_cycles t = Agrid_platform.Units.cycles_of_seconds t.tau_seconds

let validate t =
  if t.n_tasks <= 0 then invalid_arg "Spec: n_tasks must be positive";
  if t.n_tasks <> t.etc_params.n_tasks then
    invalid_arg "Spec: etc_params.n_tasks mismatch";
  if t.n_tasks <> t.dag_params.n then invalid_arg "Spec: dag_params.n mismatch";
  (* written so that NaN fails every test: a comparison with NaN is false *)
  if not (t.data_mean_bits >= 0. && Float.is_finite t.data_mean_bits) then
    invalid_arg "Spec: data size must be finite and nonnegative";
  if not (t.data_cv >= 0. && Float.is_finite t.data_cv) then
    invalid_arg "Spec: data_cv must be finite and nonnegative";
  if not (t.secondary_fraction > 0. && t.secondary_fraction <= 1.) then
    invalid_arg "Spec: secondary_fraction outside (0, 1]";
  if not (t.battery_scale > 0. && Float.is_finite t.battery_scale) then
    invalid_arg "Spec: battery_scale must be finite and positive";
  if not (t.tau_seconds > 0. && Float.is_finite t.tau_seconds) then
    invalid_arg "Spec: tau must be finite and positive"

let pp ppf t =
  Fmt.pf ppf "spec<|T|=%d tau=%.0fs battery*%.3g seed=%d>" t.n_tasks
    t.tau_seconds t.battery_scale t.seed
