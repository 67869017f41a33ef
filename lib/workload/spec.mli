(** Scenario specification: everything needed to generate the paper's
    simulation inputs from one seed. [paper_scale] is the published study
    (|T| = 1024, tau = 34,075 s); [scaled] shrinks |T|, tau, batteries and
    DAG depth proportionally so the same constraints bind (DESIGN.md
    section 3, substitution 5). *)

type t = {
  n_tasks : int;
  etc_params : Agrid_etc.Etc.params;
  dag_params : Agrid_dag.Generate.params;
  data_mean_bits : float;  (** mean global data item size, bits *)
  data_cv : float;
  secondary_fraction : float;  (** secondary version time/energy/data factor *)
  battery_scale : float;  (** multiplies every machine's B(j) *)
  tau_seconds : float;
  seed : int;
}

val paper_scale : ?seed:int -> unit -> t
val scaled : ?seed:int -> factor:float -> unit -> t
(** @raise Invalid_argument unless [factor] is in (0, 1]. *)

val default : ?seed:int -> unit -> t
(** Demo scale: |T| = 128. *)

val with_tau_seconds : t -> float -> t
val tau_cycles : t -> int

val validate : t -> unit
(** @raise Invalid_argument on any inconsistency (task-count mismatches,
    nonpositive tau, out-of-range fractions) and on NaN or infinite
    scalars. *)

val pp : Format.formatter -> t -> unit
