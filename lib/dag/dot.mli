(** Graphviz export of task DAGs (CLI [dot] subcommand). *)

val pp : ?name:string -> Format.formatter -> Dag.t -> unit
val to_string : ?name:string -> Dag.t -> string
