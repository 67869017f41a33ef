(** Plain-text table rendering for the regenerated paper tables. *)

type t

val make : title:string -> columns:string list -> rows:string list list -> t
(** @raise Invalid_argument when a row's width differs from the header. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
