(** Structural metrics of a DAG (workload reports and test invariants). *)

type t = {
  n_tasks : int;
  n_edges : int;
  depth : int;
  max_width : int;
  n_roots : int;
  n_leaves : int;
  mean_in_degree : float;
  max_in_degree : int;
  mean_out_degree : float;
  max_out_degree : int;
}

val compute : Dag.t -> t

val pp : Format.formatter -> t -> unit
