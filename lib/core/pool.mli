(** Flat structure-of-arrays candidate-pool arena for the SoA scheduler
    mode ({!Slrh.params.mode} [= `Soa]).

    One arena lives for one {!Slrh.continue_run}: per-machine rows of
    (task, best version, best score) in ready-list order, a flat
    (task, machine) parent-bound store (ready floor and incoming comm
    energy, unboxed), and a shared walk permutation selected on demand. Rows are stamped
    with the commit epoch ([Schedule.n_mapped]) and reused while it is
    unchanged (DESIGN.md section 13). Steady-state reuse touches no
    allocating operation at all, which is what the allocation-budget
    suite pins. *)

open Agrid_workload

module Flat : sig
  type row = {
    mutable tasks : int array;  (** pool task ids, ready-list order *)
    mutable versions : Version.t array;  (** best version per slot *)
    mutable scores : float array;  (** best score per slot *)
    mutable count : int;  (** live slots *)
    counts : Feasibility.filter_counts;
        (** |raw pool| and |ready set| at build — the
            ["feasibility/admitted"] / ["feasibility/checked"] replay *)
    mutable epoch : int;  (** commit epoch at build; [-1] = never built *)
  }

  type t = {
    memo : Feasibility.Memo.t;  (** energy admission bounds *)
    n_machines : int;
    n_tasks : int;
    rows : row array;  (** one per machine *)
    bound_ready : int array;
        (** [task * n_machines + machine] -> parent-ready floor *)
    bound_comm : float array;
        (** [task * n_machines + machine] -> incoming comm energy *)
    bound_known : Bytes.t;  (** ['\001'] once the slot above is priced *)
    order : int array;  (** shared walk permutation, length [n_tasks] *)
    mutable selected : int;
        (** [order.(0 .. selected - 1)] is final for the pool last reset *)
    mutable capacity : int;  (** largest row capacity *)
    mutable hwm : int;  (** largest pool ever held *)
    mutable regrown : int;  (** row regrowth events *)
  }

  val default_capacity : int
  (** Initial row capacity (16): small enough that realistic workloads
      exercise regrowth, so the gauges below are live. *)

  val create : ?initial_capacity:int -> feas_mode:Feasibility.mode -> Workload.t -> t
  (** Build an arena for one run. @raise Invalid_argument on a
      non-positive [initial_capacity]. *)

  val capacity : t -> int
  (** Largest row capacity reached — the ["slrh/pool_capacity"] gauge. *)

  val hwm : t -> int
  (** Largest pool occupancy observed — the ["slrh/pool_hwm"] gauge. *)

  val regrown : t -> int
  (** Row regrowth events — the ["slrh/pool_regrown"] counter. Each
      event allocates fresh arrays without copying stale contents
      (regrowth only happens at the top of a rebuild, which overwrites
      every slot it uses — pinned by the regrowth unit test). *)

  val ensure : t -> row -> int -> int array
  (** Grow [row] (geometrically, fresh arrays, no copy) to hold [n]
      candidates; returns its task buffer. Resets [count] on regrowth. *)

  val note_occupancy : t -> int -> unit
  (** Fold a freshly built pool's size into the high-water mark. *)

  val reset_order : t -> int -> unit
  (** Start a fresh selection over a pool of [n] just-scored slots. *)

  val nth : t -> row -> n:int -> int -> int
  (** [nth t row ~n i] is the row slot at walk position [i] (< [n]) of
      the pool last passed to {!reset_order}: the (i+1)-th slot by
      (score desc, task asc) — the boxed [List.sort] order. Positions are
      selected on demand into the shared [order] scratch, so a walk that
      reads only a prefix orders only that prefix. Allocation-free; rows
      keep their fill order. *)
end
