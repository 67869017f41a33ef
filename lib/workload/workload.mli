(** A fully instantiated scenario — one ETC matrix x one DAG x one grid case
    — in simulator units. This is the input type every heuristic consumes.

    Instances are deterministic functions of [(spec.seed, etc_index,
    dag_index)]; ETC [k] is bit-identical across cases (cases are column
    restrictions), matching the paper's 10 ETC x 10 DAG reusable scenario
    design. *)

type t

val build :
  ?etc:Agrid_etc.Etc.t ->
  ?dag:Agrid_dag.Dag.t ->
  ?data_bits:float array ->
  Spec.t ->
  etc_index:int ->
  dag_index:int ->
  case:Agrid_platform.Grid.case ->
  t
(** Generate (or accept pre-built) artefacts and assemble the scenario.
    A supplied [?etc] must cover the full Case A machine set.
    @raise Invalid_argument when the total work — each task at its
    largest cycle count on any machine, each edge at its slowest
    transfer, plus tau — exceeds 2{^ 61} cycles, which keeps every start
    and finish of any schedule far inside an int. *)

val etc_for_spec : Spec.t -> etc_index:int -> Agrid_etc.Etc.t
(** The full (Case A) ETC matrix for an index — shared across cases. *)

val dag_for_spec : Spec.t -> dag_index:int -> Agrid_dag.Dag.t
val data_for_spec : Spec.t -> Agrid_dag.Dag.t -> dag_index:int -> float array

val with_tau : t -> tau_cycles:int -> t
(** @raise Invalid_argument on a nonpositive tau, or one that takes the
    total work past the bound {!build} enforces. *)

val degrade_bandwidth : t -> machine:int -> factor:float -> t
(** Scale one machine's bandwidth (churn extension). Indices are stable;
    the ETC matrix is unaffected.
    @raise Invalid_argument when out of range or on nonpositive factors. *)

val n_tasks : t -> int
val n_machines : t -> int
val grid : t -> Agrid_platform.Grid.t
val dag : t -> Agrid_dag.Dag.t
val etc : t -> Agrid_etc.Etc.t
val tau : t -> int
val case : t -> Agrid_platform.Grid.case
val spec : t -> Spec.t
val indices : t -> int * int
(** [(etc_index, dag_index)]. *)

val exec_cycles : t -> task:int -> machine:int -> version:Version.t -> int
(** Occupancy in cycles; secondary = ceil(fraction * primary), >= 1. *)

val cycles : t -> int array
(** The flat cycle table {!exec_cycles} reads, priced once by {!build}:
    slot [2 * (task * n_machines + machine)] holds the primary version's
    cycles and the next slot the secondary's. Shared, not copied — the
    allocation-free scoring pass reads it directly; callers must not
    mutate it. *)

val exec_energy : t -> task:int -> machine:int -> version:Version.t -> float
(** [compute_rate *. seconds_of_cycles (exec_cycles ...)] — the machine's
    rate over the occupied integer cycles. *)

val edge_bits : t -> edge:int -> parent_version:Version.t -> float
(** Output volume of an edge given the parent's executed version. *)

val edge_bits_into :
  t -> edge:int -> parent_version:Version.t -> float array -> int -> unit
(** [edge_bits_into t ~edge ~parent_version a i] stores {!edge_bits} in
    [a.(i)] without boxing the float. *)

val total_system_energy : t -> float
(** TSE of the grid, computed once per grid. *)

val worst_case_child_comm_energy :
  t -> task:int -> machine:int -> version:Version.t -> float
(** Conservative child-communication energy (every child on the worst link),
    per the SLRH feasibility check. *)

val pp : Format.formatter -> t -> unit
