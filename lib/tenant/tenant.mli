(** The tenant model for continuous multi-application traffic (DESIGN.md
    section 14): a stable identity, a priority class that sets the
    tenant's weighted share of scheduler time, and per-tenant quotas
    ({!Agrid_core.Feasibility.quota}) enforced at application admission. *)

type priority = High | Normal | Low

val weight : priority -> int
(** DRR weight of the class: High = 4, Normal = 2, Low = 1. A High
    tenant receives 4x the scheduler timesteps of a Low tenant while
    both stay backlogged. *)

val priority_to_string : priority -> string
val priority_of_string : string -> (priority, string) result

type t = {
  id : string;  (** nonempty; [A-Za-z0-9_.-] only (wire- and metric-safe) *)
  priority : priority;
  quota : Agrid_core.Feasibility.quota;
}

val make :
  ?priority:priority -> ?energy_quota:float -> ?machine_quota:int -> string -> t
(** [make id] with priority [Normal] and no quotas by default. Does not
    validate — see {!validate}. *)

val validate : t -> (unit, string) result
(** Id well-formed, quota values admissible. *)

val pp : Format.formatter -> t -> unit
