(** Layered random DAG generation ([ShC04]-style; see DESIGN.md section 3 for
    the substitution rationale) and per-edge data-item sizing. *)

type params = {
  n : int;  (** number of subtasks *)
  n_levels : int;  (** target number of levels (>= 1) *)
  max_parents : int;  (** max in-degree of non-root tasks (>= 1) *)
  prev_level_bias : float;
      (** probability each parent is drawn from the immediately preceding
          level rather than any earlier one *)
}

val default_params : n:int -> params
(** [sqrt n] levels, max 3 parents, 0.8 previous-level bias. *)

val generate : Agrid_prng.Splitmix64.t -> params -> Dag.t
(** Generate a DAG; task ids are assigned in level order, hence already
    topologically sorted. Every non-level-0 task has at least one parent. *)

val data_sizes :
  Agrid_prng.Splitmix64.t -> Dag.t -> mean_bits:float -> cv:float -> float array
(** Gamma-distributed global data item size (bits) for each edge id. *)
