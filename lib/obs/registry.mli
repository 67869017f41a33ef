(** Named-metric registry: counters, gauges and fixed-bucket histograms
    under slash-separated names (["slrh/assignments"]).

    Merging is associative and commutative — counters add, gauges keep the
    maximum (the use cases record high-water marks and final values),
    histograms add bucket-wise — so each parallel worker can fill a
    private registry lock-free and the results fold in any grouping after
    the join. *)

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of Hist.t  (** exposed live, not copied *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit
(** Create-or-add a counter.
    @raise Invalid_argument if [name] holds a different metric kind. *)

val set_gauge : t -> string -> float -> unit
(** Last write wins locally; {!merge_into} keeps the maximum. *)

val max_gauge : t -> string -> float -> unit

val observe : t -> string -> bounds:float array -> float -> unit
(** Create-or-observe a histogram. [bounds] applies on the first
    observation only; later calls reuse the existing buckets unchecked. *)

val find : t -> string -> metric option
val cardinal : t -> int

val to_alist : t -> (string * metric) list
(** Name-sorted — the deterministic view exporters and tests use. *)

val fold : (string -> metric -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds in name order. *)

val merge_into : into:t -> t -> unit
(** @raise Invalid_argument when a name holds different kinds on the two
    sides, or histogram bounds differ. *)

val pp : Format.formatter -> t -> unit
