(** The ad hoc grid configurations of paper Table 1: Case A (2 fast +
    2 slow), Case B (2 fast + 1 slow), Case C (1 fast + 2 slow). Machine 0
    is always fast — the upper bound's reference machine. *)

type case = A | B | C

type t

val make : name:string -> Machine.profile array -> t
(** @raise Invalid_argument on an empty machine set. *)

val of_case : ?battery_scale:float -> case -> t
val all_cases : case list
val case_name : case -> string

val name : t -> string
val n_machines : t -> int
val machine : t -> int -> Machine.profile
val machines : t -> Machine.profile array
val count_klass : t -> Machine.klass -> int

val total_system_energy : t -> float
(** TSE = sum of batteries (the objective's energy normaliser). *)

val min_bandwidth : t -> float
(** Worst link in the grid (SLRH's worst-case feasibility assumption). *)

val scale_bandwidth : t -> machine:int -> factor:float -> t
(** Scale one machine's bandwidth in place (churn engine's link-degrade
    event); indices are stable.
    @raise Invalid_argument when out of range or on nonpositive factors. *)

val pp : Format.formatter -> t -> unit
