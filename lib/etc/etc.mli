(** Estimated-time-to-compute (ETC) matrices, generated with the
    Gamma-distribution method of [AlS00] cited by the paper (Section III).

    Matrices cover the full Case A machine set (machine 0 = reference fast
    machine); Cases B/C are column restrictions via {!for_case}. *)

type params = {
  n_tasks : int;
  mean_fast : float;  (** mean execution seconds on a fast machine *)
  task_cv : float;  (** heterogeneity of per-task baseline times *)
  machine_cv : float;  (** per-(task,machine) gamma noise *)
  ratio_lo : float;  (** fast/slow speed ratio lower bound *)
  ratio_hi : float;  (** fast/slow speed ratio upper bound *)
}

val default_params : n_tasks:int -> params
(** Calibrated so the pooled per-subtask mean over the Case A machine mix is
    ~131 s and Table 3 minimum-relative-speed stats land in the paper's
    band. *)

type t

val generate :
  Agrid_prng.Splitmix64.t -> params -> klasses:Agrid_platform.Machine.klass array -> t

val of_matrix :
  klasses:Agrid_platform.Machine.klass array -> float array array -> t
(** Wrap an explicit matrix (tests). Entries must be positive. *)

val n_tasks : t -> int
val n_machines : t -> int

val seconds : t -> task:int -> machine:int -> float
(** ETC(i, j): estimated primary-version execution seconds. *)

val row : t -> int -> float array
(** Task [i]'s ETC row, one entry per machine. Shared with [t]: read it,
    do not mutate it. *)

val klass : t -> machine:int -> Agrid_platform.Machine.klass
val klasses : t -> Agrid_platform.Machine.klass array

val restrict : t -> columns:int array -> t
val case_columns : Agrid_platform.Grid.case -> int array
val for_case : t -> Agrid_platform.Grid.case -> t

val mean : t -> float
val pp : Format.formatter -> t -> unit
