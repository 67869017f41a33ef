open Agrid_dag

let test_of_edges_basic () =
  let d = Testlib.diamond_dag () in
  Alcotest.(check int) "tasks" 4 (Dag.n_tasks d);
  Alcotest.(check int) "edges" 4 (Dag.n_edges d);
  Alcotest.(check (list int)) "parents of 3" [ 1; 2 ] (List.init 2 (Dag.parent d 3));
  Alcotest.(check (list int)) "children of 0" [ 1; 2 ] (List.init 2 (Dag.child d 0));
  Alcotest.(check int) "in_degree root" 0 (Dag.in_degree d 0);
  Alcotest.(check int) "out_degree leaf" 0 (Dag.out_degree d 3)

let test_edge_ids_stable () =
  let d = Testlib.diamond_dag () in
  (* edges sorted lexicographically: (0,1) (0,2) (1,3) (2,3) *)
  Alcotest.(check (pair int int)) "edge 0" (0, 1) (Dag.edge d 0);
  Alcotest.(check (pair int int)) "edge 3" (2, 3) (Dag.edge d 3);
  Alcotest.(check int) "parent 0 of 3" 1 (Dag.parent d 3 0);
  Alcotest.(check int) "its edge" 2 (Dag.parent_edge d 3 0);
  Alcotest.(check int) "parent 1 of 3" 2 (Dag.parent d 3 1);
  Alcotest.(check int) "its edge" 3 (Dag.parent_edge d 3 1);
  Alcotest.(check int) "child edges are consecutive ids" 1 (Dag.child_edge d 0 1);
  Alcotest.check_raises "past the last parent" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Dag.parent_edge d 3 2));
  Alcotest.check_raises "not into the next row" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Dag.child_edge d 0 2));
  Alcotest.check_raises "a leaf has no child" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Dag.child d 3 0))

let test_duplicate_edges_collapse () =
  let d = Dag.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2) ] in
  Alcotest.(check int) "edges deduped" 2 (Dag.n_edges d)

let test_rejects_self_edge () =
  Alcotest.check_raises "self edge" (Invalid_argument "Dag.of_edges: self edge")
    (fun () -> ignore (Dag.of_edges ~n:2 [ (1, 1) ]))

let test_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Dag.of_edges: edge endpoint out of range")
    (fun () -> ignore (Dag.of_edges ~n:2 [ (0, 5) ]))

let test_rejects_cycle () =
  let raised =
    try
      ignore (Dag.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]);
      false
    with Dag.Cycle nodes -> List.sort compare nodes = [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "cycle detected with members" true raised

let test_topological_order () =
  let d = Testlib.diamond_dag () in
  let order = Dag.topological_order d in
  let pos = Array.make 4 0 in
  Array.iteri (fun idx task -> pos.(task) <- idx) order;
  Dag.iter_edges (fun _ ~src ~dst ->
      if pos.(src) >= pos.(dst) then Alcotest.fail "edge violates topo order")
    d

let test_roots_leaves () =
  let d = Testlib.diamond_dag () in
  Alcotest.(check (list int)) "roots" [ 0 ] (Dag.roots d);
  Alcotest.(check (list int)) "leaves" [ 3 ] (Dag.leaves d)

let test_levels_depth () =
  let d = Testlib.diamond_dag () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (Dag.levels d);
  Alcotest.(check int) "depth" 3 (Dag.depth d);
  let empty = Dag.of_edges ~n:0 [] in
  Alcotest.(check int) "empty depth" 0 (Dag.depth empty)

(* The CSR store against a list model: random acyclic edge lists
   (forward edges under a random relabelling of the tasks, so src > dst
   occurs), unsorted, with repeated pairs, the empty list included. Edge
   ids index the sorted, de-duplicated list; a task's parents and
   children are that list filtered, in its order; each id's record is the
   last input record of its pair. The already-canonical input, whose
   records keep their positions, is checked too. *)
let gen_edge_list =
  QCheck2.Gen.(
    let* n = int_range 0 60 in
    let* relabel = shuffle_a (Array.init n Fun.id) in
    let+ pairs =
      if n < 2 then return []
      else list_size (int_range 0 (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    ( n,
      List.filter_map
        (fun (a, b) ->
          if a = b then None else Some (relabel.(min a b), relabel.(max a b)))
        pairs ))

let csr_matches_model (n, edges) =
  let model = List.sort_uniq compare edges in
  let ids = List.mapi (fun e (s, d) -> (e, s, d)) model in
  let check_input input =
    let src = Array.of_list (List.map fst input) and dst = Array.of_list (List.map snd input) in
    let last_record e =
      let s, d = List.nth model e in
      let r = ref (-1) in
      List.iteri (fun k (s', d') -> if s' = s && d' = d then r := k) input;
      !r
    in
    let t, records = Dag.of_edge_arrays ~n src dst in
    Dag.n_tasks t = n
    && Dag.n_edges t = List.length model
    && List.for_all (fun (e, s, d) -> Dag.src t e = s && Dag.dst t e = d && Dag.edge t e = (s, d)) ids
    && Array.length records = List.length model
    && List.for_all (fun (e, _, _) -> records.(e) = last_record e) ids
    && List.for_all
         (fun i ->
           let parents = List.filter_map (fun (e, s, d) -> if d = i then Some (s, e) else None) ids in
           let children = List.filter_map (fun (e, s, d) -> if s = i then Some (d, e) else None) ids in
           List.init (Dag.in_degree t i) (fun k -> (Dag.parent t i k, Dag.parent_edge t i k))
           = parents
           && List.init (Dag.out_degree t i) (fun k -> (Dag.child t i k, Dag.child_edge t i k))
              = children)
         (List.init n Fun.id)
  in
  check_input edges && check_input model

let test_csr_model () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:300 ~name:"CSR store matches the list model" gen_edge_list
       csr_matches_model)

(* ---- generator ---- *)

let gen_params =
  QCheck2.Gen.(
    let* n = int_range 2 150 in
    let* n_levels = int_range 1 (min n 20) in
    let* max_parents = int_range 1 5 in
    let* bias = float_range 0. 1. in
    let* seed = int_range 0 10_000 in
    return ({ Generate.n; n_levels; max_parents; prev_level_bias = bias }, seed))

let generated_dag (params, seed) =
  Generate.generate (Testlib.rng ~seed ()) params

let test_generator_acyclic_and_sized () =
  let prop ((params, _seed) as input) =
    let d = generated_dag input in
    (* of_edges would have raised Cycle; check size and parent bounds *)
    Dag.n_tasks d = params.Generate.n
    &&
    let ok = ref true in
    for i = 0 to params.Generate.n - 1 do
      if Dag.in_degree d i > params.Generate.max_parents then ok := false
    done;
    !ok
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"generator size and fan-in" gen_params prop)

let test_generator_connectivity () =
  (* every task beyond the first level has at least one parent *)
  let prop ((params, _) as input) =
    let d = generated_dag input in
    if params.Generate.n_levels = 1 then true
    else begin
      (* task ids respect topological order: every edge points forward *)
      let ok = ref true in
      Dag.iter_edges (fun _ ~src ~dst -> if src >= dst then ok := false) d;
      !ok
    end
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"generator forward edges" gen_params prop)

let test_generator_deterministic () =
  let params = Generate.default_params ~n:64 in
  let d1 = Generate.generate (Testlib.rng ~seed:5 ()) params in
  let d2 = Generate.generate (Testlib.rng ~seed:5 ()) params in
  Testlib.check_same_dag "same edges" d1 d2

let test_generator_level_structure () =
  let params = { (Generate.default_params ~n:100) with Generate.n_levels = 10 } in
  let d = Generate.generate (Testlib.rng ~seed:3 ()) params in
  (* at most 10 distinct structural levels can be *realised*; the generator
     guarantees at least one task per target level and only forward edges,
     so depth is within [2, 10] *)
  let depth = Dag.depth d in
  if depth < 2 || depth > 10 then Alcotest.failf "depth %d outside [2,10]" depth

let test_generator_single_level () =
  let params = { (Generate.default_params ~n:10) with Generate.n_levels = 1 } in
  let d = Generate.generate (Testlib.rng ()) params in
  Alcotest.(check int) "no edges" 0 (Dag.n_edges d);
  Alcotest.(check int) "all roots" 10 (List.length (Dag.roots d))

let test_generator_rejects_bad_params () =
  Alcotest.check_raises "bad levels" (Invalid_argument "Generate: n_levels must be in [1, n]")
    (fun () ->
      ignore
        (Generate.generate (Testlib.rng ())
           { Generate.n = 3; n_levels = 9; max_parents = 1; prev_level_bias = 0.5 }))

let test_data_sizes () =
  let d = Testlib.diamond_dag () in
  let sizes = Generate.data_sizes (Testlib.rng ()) d ~mean_bits:1e5 ~cv:0.5 in
  Alcotest.(check int) "one size per edge" (Dag.n_edges d) (Array.length sizes);
  Array.iter (fun s -> if s <= 0. then Alcotest.fail "nonpositive data size") sizes

(* ---- metrics ---- *)

let test_metrics_diamond () =
  let m = Metrics.compute (Testlib.diamond_dag ()) in
  Alcotest.(check int) "depth" 3 m.Metrics.depth;
  Alcotest.(check int) "max width" 2 m.Metrics.max_width;
  Alcotest.(check int) "roots" 1 m.Metrics.n_roots;
  Alcotest.(check int) "leaves" 1 m.Metrics.n_leaves;
  Testlib.close "mean in" 1. m.Metrics.mean_in_degree;
  Alcotest.(check int) "max in" 2 m.Metrics.max_in_degree

let test_width_per_level () =
  Alcotest.(check (array int)) "widths" [| 1; 2; 1 |]
    (Metrics.width_per_level (Testlib.diamond_dag ()))

let test_dot_output () =
  let s = Dot.to_string ~name:"g" (Testlib.diamond_dag ()) in
  Alcotest.(check bool) "has header" true (String.length s > 0 && String.sub s 0 9 = "digraph g");
  Alcotest.(check bool) "has edge" true (Testlib.contains s "t0 -> t1")

let suites =
  [
    ( "dag",
      [
        Alcotest.test_case "of_edges basic" `Quick test_of_edges_basic;
        Alcotest.test_case "edge ids stable" `Quick test_edge_ids_stable;
        Alcotest.test_case "duplicates collapse" `Quick test_duplicate_edges_collapse;
        Alcotest.test_case "rejects self edge" `Quick test_rejects_self_edge;
        Alcotest.test_case "rejects out of range" `Quick test_rejects_out_of_range;
        Alcotest.test_case "rejects cycle" `Quick test_rejects_cycle;
        Alcotest.test_case "topological order" `Quick test_topological_order;
        Alcotest.test_case "roots and leaves" `Quick test_roots_leaves;
        Alcotest.test_case "levels and depth" `Quick test_levels_depth;
        Alcotest.test_case "CSR store vs list model (qcheck)" `Quick test_csr_model;
        Alcotest.test_case "generator acyclic+sized (qcheck)" `Quick
          test_generator_acyclic_and_sized;
        Alcotest.test_case "generator forward edges (qcheck)" `Quick
          test_generator_connectivity;
        Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "generator level structure" `Quick
          test_generator_level_structure;
        Alcotest.test_case "generator single level" `Quick test_generator_single_level;
        Alcotest.test_case "generator bad params" `Quick test_generator_rejects_bad_params;
        Alcotest.test_case "data sizes" `Quick test_data_sizes;
        Alcotest.test_case "metrics diamond" `Quick test_metrics_diamond;
        Alcotest.test_case "width per level" `Quick test_width_per_level;
        Alcotest.test_case "dot output" `Quick test_dot_output;
      ] );
  ]
