(* A fully instantiated scenario: one ETC matrix x one DAG x one grid case,
   with per-edge data sizes and the time constraint, all in simulator units
   (integer clock cycles). This is the input type every heuristic consumes.

   Instances are deterministic functions of (spec.seed, etc_index,
   dag_index): each artefact gets its own splitmix64 stream, so ETC k is
   identical whether or not DAG l was ever generated — matching the paper's
   design of 10 ETCs x 10 DAGs = 100 reusable scenarios. *)

open Agrid_prng
open Agrid_platform

type t = {
  spec : Spec.t;
  case : Grid.case;
  etc_index : int;
  dag_index : int;
  grid : Grid.t;
  dag : Agrid_dag.Dag.t;
  etc : Agrid_etc.Etc.t; (* restricted to this case's machines *)
  data_bits : float array; (* per edge id *)
  tau : int; (* cycles *)
  cycles : int array;
      (* 2 * (task * n_machines + machine) + (0 primary | 1 secondary) *)
  tse : float; (* Grid.total_system_energy grid *)
}

(* Independent, label-keyed stream derivation: mixes the label hash and the
   index into the seed so streams do not overlap for any (label, index). *)
let stream spec ~label ~index =
  let open Int64 in
  let s =
    add
      (mul (of_int spec.Spec.seed) 0x9E3779B97F4A7C15L)
      (add (mul (of_int index) 0xBF58476D1CE4E5B9L) (of_int (Hashtbl.hash label)))
  in
  Splitmix64.create s

let etc_for_spec spec ~etc_index =
  let rng = stream spec ~label:"etc" ~index:etc_index in
  (* generated over the full Case A machine set; cases restrict columns *)
  let klasses = Array.map (fun (m : Machine.profile) -> m.klass) (Grid.machines (Grid.of_case A)) in
  Agrid_etc.Etc.generate rng spec.Spec.etc_params ~klasses

let dag_for_spec spec ~dag_index =
  let rng = stream spec ~label:"dag" ~index:dag_index in
  Agrid_dag.Generate.generate rng spec.Spec.dag_params

let data_for_spec spec dag ~dag_index =
  let rng = stream spec ~label:"data" ~index:dag_index in
  Agrid_dag.Generate.data_sizes rng dag ~mean_bits:spec.Spec.data_mean_bits
    ~cv:spec.Spec.data_cv

(* Secondary versions take the spec's fraction (paper: 10 %) of the
   primary's cycles, at least one. *)
let secondary_cycles spec primary_cycles =
  let c =
    int_of_float (Float.ceil (float_of_int primary_cycles *. spec.Spec.secondary_fraction))
  in
  if c < 1 then 1 else c

(* The flat cycle table: both versions' occupancy for every (task,
   machine), priced once per workload. *)
let cycle_table spec etc ~n ~m =
  let cycles = Array.make (2 * n * m) 0 in
  for i = 0 to n - 1 do
    let row = Agrid_etc.Etc.row etc i in
    for j = 0 to m - 1 do
      let primary = Units.cycles_of_seconds_at row j in
      let slot = 2 * ((i * m) + j) in
      cycles.(slot) <- primary;
      cycles.(slot + 1) <- secondary_cycles spec primary
    done
  done;
  cycles

(* Every start and finish in any schedule is bounded by the scenario's
   total work: each task at its largest cycle count on any machine, each
   edge at its slowest transfer (the primary output over the grid's
   lowest bandwidth), then tau. Refusing a total past 2^61 here keeps all
   schedule arithmetic far below an int's 2^62, so no timeline operation
   needs a check of its own. Ints and unboxed floats only: realize's
   allocation budgets leave no room for a boxed value. *)
let max_total_work = 1 lsl 61

let refuse_total_work () = invalid_arg "Workload.build: total work exceeds 2^61 cycles"

(* [total + c], refused past the bound; each term is below 2^62, so the
   sum is checked before it is formed. No closure: a captured ref would
   be boxed. *)
let add_work total c = if c > max_total_work - total then refuse_total_work () else total + c

let check_total_work grid data_bits cycles ~tau =
  let total = ref (add_work 0 tau) in
  let m = Grid.n_machines grid in
  for task = 0 to (Array.length cycles / (2 * m)) - 1 do
    let worst = ref 0 in
    for slot = 2 * task * m to (2 * (task + 1) * m) - 1 do
      if cycles.(slot) > !worst then worst := cycles.(slot)
    done;
    total := add_work !total !worst
  done;
  let min_bandwidth = ref infinity in
  for j = 0 to m - 1 do
    let bw = (Grid.machine grid j).Machine.bandwidth in
    if bw < !min_bandwidth then min_bandwidth := bw
  done;
  for edge = 0 to Array.length data_bits - 1 do
    (* [Comm.worst_case_cycles]' rounding (a positive ceiling is at
       least 1), priced here without a boxed float crossing a module
       boundary *)
    let x =
      Float.ceil (data_bits.(edge) /. !min_bandwidth *. float_of_int Units.cycles_per_second)
    in
    if not (x < float_of_int max_total_work) then refuse_total_work ();
    if x > 0. then total := add_work !total (int_of_float x)
  done

let build ?etc ?dag ?data_bits spec ~etc_index ~dag_index ~case =
  Spec.validate spec;
  let grid = Grid.of_case ~battery_scale:spec.Spec.battery_scale case in
  let etc_full = match etc with Some e -> e | None -> etc_for_spec spec ~etc_index in
  let etc = Agrid_etc.Etc.for_case etc_full case in
  if Agrid_etc.Etc.n_machines etc <> Grid.n_machines grid then
    invalid_arg "Workload.build: ETC column count does not match grid";
  if Agrid_etc.Etc.n_tasks etc <> spec.Spec.n_tasks then
    invalid_arg "Workload.build: ETC task count does not match spec";
  let dag = match dag with Some d -> d | None -> dag_for_spec spec ~dag_index in
  if Agrid_dag.Dag.n_tasks dag <> spec.Spec.n_tasks then
    invalid_arg "Workload.build: DAG task count does not match spec";
  let data_bits =
    match data_bits with
    | Some d -> d
    | None -> data_for_spec spec dag ~dag_index
  in
  if Array.length data_bits <> Agrid_dag.Dag.n_edges dag then
    invalid_arg "Workload.build: data size count does not match DAG edges";
  let n = spec.Spec.n_tasks and m = Grid.n_machines grid in
  let tau = Spec.tau_cycles spec in
  let cycles = cycle_table spec etc ~n ~m in
  check_total_work grid data_bits cycles ~tau;
  {
    spec;
    case;
    etc_index;
    dag_index;
    grid;
    dag;
    etc;
    data_bits;
    tau;
    cycles;
    tse = Grid.total_system_energy grid;
  }

(* Scale one machine's bandwidth mid-run (churn extension): the ETC matrix
   and the cycle table are unaffected — only communication durations
   and energies computed against the grid change for future plans. *)
let degrade_bandwidth t ~machine ~factor =
  { t with grid = Grid.scale_bandwidth t.grid ~machine ~factor }

let n_tasks t = t.spec.Spec.n_tasks
let n_machines t = Grid.n_machines t.grid
let grid t = t.grid
let dag t = t.dag
let etc t = t.etc
let tau t = t.tau
let case t = t.case
let spec t = t.spec
let indices t = (t.etc_index, t.dag_index)

let cycles t = t.cycles

(* Execution time of a (task, machine, version) triple in cycles. *)
let exec_cycles t ~task ~machine ~version =
  let slot = 2 * ((task * Grid.n_machines t.grid) + machine) in
  match (version : Version.t) with
  | Primary -> t.cycles.(slot)
  | Secondary -> t.cycles.(slot + 1)

(* Energy for that execution: rate E(j) over the occupied integer cycles. *)
let exec_energy t ~task ~machine ~version =
  let cycles = exec_cycles t ~task ~machine ~version in
  Machine.compute_energy (Grid.machine t.grid machine)
    ~seconds:(Units.seconds_of_cycles cycles)

(* Output volume of an edge given the version the parent ran as. *)
let[@inline] bits_of t ~edge ~parent_version =
  let bits = t.data_bits.(edge) in
  match (parent_version : Version.t) with
  | Primary -> bits
  | Secondary -> bits *. t.spec.Spec.secondary_fraction

let edge_bits t ~edge ~parent_version = bits_of t ~edge ~parent_version

(* Written in place: a float returned to another module would be boxed. *)
let edge_bits_into t ~edge ~parent_version a i =
  a.(i) <- bits_of t ~edge ~parent_version

let total_system_energy t = t.tse

(* Sum over a task's children of the worst-case transmit energy from
   [machine], assuming version [version] output volumes — the SLRH
   feasibility check's conservative estimate (paper Section IV). *)
let worst_case_child_comm_energy t ~task ~machine ~version =
  let acc = ref 0. in
  for k = 0 to Agrid_dag.Dag.out_degree t.dag task - 1 do
    let edge = Agrid_dag.Dag.child_edge t.dag task k in
    let bits = edge_bits t ~edge ~parent_version:version in
    acc := !acc +. Comm.worst_case_energy t.grid ~src:machine ~bits
  done;
  !acc

let pp ppf t =
  Fmt.pf ppf "workload<%s etc=%d dag=%d |T|=%d tau=%a>" (Grid.name t.grid)
    t.etc_index t.dag_index (n_tasks t) Units.pp_cycles t.tau
