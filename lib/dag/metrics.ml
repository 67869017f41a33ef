(* Structural metrics used in workload reports and as qcheck invariants. *)

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

let width_per_level dag =
  let levels = Dag.levels dag in
  let depth = Dag.depth dag in
  let widths = Array.make (max 1 depth) 0 in
  Array.iter (fun l -> widths.(l) <- widths.(l) + 1) levels;
  widths

let compute dag =
  let n = Dag.n_tasks dag in
  let in_degrees = Array.init n (Dag.in_degree dag) in
  let out_degrees = Array.init n (Dag.out_degree dag) in
  let sum = Array.fold_left ( + ) 0 in
  let fmean xs = if n = 0 then 0. else float_of_int (sum xs) /. float_of_int n in
  {
    n_tasks = n;
    n_edges = Dag.n_edges dag;
    depth = Dag.depth dag;
    max_width = Array.fold_left max 0 (width_per_level dag);
    n_roots = List.length (Dag.roots dag);
    n_leaves = List.length (Dag.leaves dag);
    mean_in_degree = fmean in_degrees;
    max_in_degree = Array.fold_left max 0 in_degrees;
    mean_out_degree = fmean out_degrees;
    max_out_degree = Array.fold_left max 0 out_degrees;
  }

let pp ppf m =
  Fmt.pf ppf
    "tasks=%d edges=%d depth=%d width=%d roots=%d leaves=%d in(mean=%.2f \
     max=%d) out(mean=%.2f max=%d)"
    m.n_tasks m.n_edges m.depth m.max_width m.n_roots m.n_leaves
    m.mean_in_degree m.max_in_degree m.mean_out_degree m.max_out_degree
