(* Graphviz export, used by the CLI `dot` subcommand for eyeballing
   generated workloads. *)

let pp ?(name = "dag") ppf dag =
  Fmt.pf ppf "digraph %s {@." name;
  Fmt.pf ppf "  rankdir=TB;@.  node [shape=circle, fontsize=10];@.";
  for i = 0 to Dag.n_tasks dag - 1 do
    Fmt.pf ppf "  t%d;@." i
  done;
  Dag.iter_edges (fun _ ~src ~dst -> Fmt.pf ppf "  t%d -> t%d;@." src dst) dag;
  Fmt.pf ppf "}@."

let to_string ?name dag = Fmt.str "%a" (pp ?name) dag
