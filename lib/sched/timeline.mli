(** Disjoint half-open busy intervals [\[start, stop)] over integer clock
    cycles; backs machine execution slots and communication channels. *)

type t

exception Overlap of { start : int; stop : int; with_start : int; with_stop : int }
(** Raised by {!insert} when the new interval collides. *)

val create : unit -> t
val length : t -> int
(** Number of busy intervals. *)

val interval : t -> int -> int * int
val to_list : t -> (int * int) list

val is_free_at : t -> int -> bool
(** No busy interval covers the given cycle. *)

val is_free : t -> start:int -> stop:int -> bool

val insert : t -> start:int -> stop:int -> unit
(** @raise Overlap on collision; intervals must be nonempty. *)

val remove : t -> start:int -> stop:int -> unit
(** Exact removal. @raise Invalid_argument if absent. *)

val first_fit : t -> not_before:int -> duration:int -> int
(** Earliest start [>= not_before] leaving [duration] cycles free. *)

val first_fit_joint :
  t -> t -> pending:int array -> n_pending:int -> not_before:int -> duration:int -> int
(** Earliest start free on both timelines simultaneously and clear of the
    first [n_pending] intervals stored flat in [pending] as
    [start; stop] pairs, in any order (a plan's not-yet-inserted
    transfers). Allocates nothing.
    @raise Invalid_argument if [n_pending] exceeds [pending]'s capacity. *)

val horizon : t -> int
(** Last busy stop (0 when empty). *)

val busy_cycles : t -> int
val well_formed : t -> bool
val pp : Format.formatter -> t -> unit
