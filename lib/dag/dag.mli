(** Immutable DAG of subtask dependencies, stored once as int arrays in
    compressed sparse rows and read through indices (no tuple, array or
    closure per access).

    Tasks are integers [0, n). Edge ids [0, n_edges) follow the
    lexicographic (src, dst) order, so per-edge payloads (the paper's
    global data items [g(i,j)]) are plain arrays indexed by edge id. Task
    [i]'s parents are [k] in [0, in_degree t i), in src order; its
    children are [k] in [0, out_degree t i), in dst order, with
    consecutive edge ids. An out-of-row [k] raises [Invalid_argument]. *)

type t

exception Cycle of int list
(** Raised by {!of_edges} when the edge list is cyclic, carrying the nodes
    still locked in cycles. *)

val of_edges : n:int -> (int * int) list -> t
(** Build from an edge list (duplicates collapsed).
    @raise Invalid_argument on out-of-range endpoints or self edges.
    @raise Cycle if the edges are not acyclic. *)

val of_edge_arrays : n:int -> int array -> int array -> t * int array
(** [of_edge_arrays ~n src dst] builds from parallel endpoint arrays (record
    [k] is the edge [src.(k) -> dst.(k)]) in O(E + n). Also returns, for
    every edge id, the index of the record that defines it: the last
    one when a pair is repeated. Records already in (src, dst) order with
    no repeat keep their positions as edge ids, and the DAG then keeps
    [src] and [dst] as its own: the caller must not modify them afterwards.
    @raise Invalid_argument on out-of-range endpoints, self edges or
    arrays of different lengths.
    @raise Cycle if the edges are not acyclic. *)

val n_tasks : t -> int
val n_edges : t -> int

val src : t -> int -> int
val dst : t -> int -> int

val edge : t -> int -> int * int
(** [(src, dst)] of an edge id. *)

val in_degree : t -> int -> int
val out_degree : t -> int -> int

val parent_edge : t -> int -> int -> int
(** [parent_edge t i k]: the edge id from task [i]'s [k]-th parent. *)

val parent : t -> int -> int -> int
(** [parent t i k = src t (parent_edge t i k)]. *)

val child_edge : t -> int -> int -> int
(** [child_edge t i k]: the edge id to task [i]'s [k]-th child. *)

val child : t -> int -> int -> int
(** [child t i k = dst t (child_edge t i k)]. *)

val iter_edges : (int -> src:int -> dst:int -> unit) -> t -> unit

val topological_order : t -> int array
(** Kahn order; deterministic for a given structure. *)

val roots : t -> int list
val leaves : t -> int list

val levels : t -> int array
(** Longest-path level of each task (roots at level 0). *)

val depth : t -> int
(** Number of levels, i.e. longest path node count; 0 for the empty DAG. *)

val pp : Format.formatter -> t -> unit
