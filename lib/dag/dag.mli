(** Immutable DAG of subtask dependencies.

    Tasks are integers [0, n); every edge [(src, dst)] has a stable edge id
    so per-edge payloads (the paper's global data items [g(i,j)]) can be
    stored in plain arrays alongside the structure. *)

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
    no repeat keep their positions as edge ids.
    @raise Invalid_argument on out-of-range endpoints, self edges or
    arrays of different lengths.
    @raise Cycle if the edges are not acyclic. *)

val n_tasks : t -> int
val n_edges : t -> int

val edges : t -> (int * int) array
(** All edges, lexicographically sorted; index = edge id. *)

val edge : t -> int -> int * int
(** [(src, dst)] of an edge id. *)

val parents : t -> int -> int array
val children : t -> int -> int array

val parent_edges : t -> int -> (int * int) array
(** Per task: [(parent, edge_id)] pairs, sorted by parent. *)

val child_edges : t -> int -> (int * int) array
(** Per task: [(child, edge_id)] pairs, sorted by child. *)

val in_degree : t -> int -> int
val out_degree : t -> int -> int
val is_edge : t -> src:int -> dst:int -> bool
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
