(* The line-oriented [agrid-scenario v1] parser the pinned-scenario
   decoder replaced, kept verbatim as the differential reference for
   test_fuzz: it splits the text into a line list, splits every line on
   single spaces, parses each field with [int_of_string_opt] /
   [float_of_string_opt] and keys edge sizes in a (src, dst) [Hashtbl].
   It raises the decoder's own [Serialize.Parse_error]. Unlike the
   decoder it allocates whatever the declared counts ask for, so it must
   only see documents whose counts are small. *)

open Agrid_workload

let fail ~line fmt =
  Fmt.kstr (fun message -> raise (Serialize.Parse_error { line; message })) fmt

let case_of_string ~line = function
  | "A" -> Agrid_platform.Grid.A
  | "B" -> Agrid_platform.Grid.B
  | "C" -> Agrid_platform.Grid.C
  | s -> fail ~line "unknown case %S" s


type reader = { mutable line : int; mutable rest : string list }

let next_line r =
  let rec skip = function
    | [] -> fail ~line:r.line "unexpected end of file"
    | l :: rest ->
        r.line <- r.line + 1;
        let trimmed = String.trim l in
        if trimmed = "" || String.length trimmed > 0 && trimmed.[0] = '#' then begin
          r.rest <- rest;
          skip rest
        end
        else begin
          r.rest <- rest;
          trimmed
        end
  in
  skip r.rest

let expect_fields r ~key ~n line =
  match String.split_on_char ' ' line with
  | k :: fields when k = key && List.length fields = n -> fields
  | k :: _ when k = key -> fail ~line:r.line "%s: expected %d fields" key n
  | _ -> fail ~line:r.line "expected %S record, got %S" key line

let parse_int r s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail ~line:r.line "not an integer: %S" s

let parse_float r s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail ~line:r.line "not a finite float: %S" s
  | None -> fail ~line:r.line "not a float: %S" s

let load_from_lines lines =
  let r = { line = 0; rest = lines } in
  if next_line r <> "agrid-scenario v1" then
    fail ~line:r.line "missing 'agrid-scenario v1' header";
  let one key = List.hd (expect_fields r ~key ~n:1 (next_line r)) in
  let seed = parse_int r (one "seed") in
  let n_tasks = parse_int r (one "n_tasks") in
  let tau_seconds = parse_float r (one "tau_seconds") in
  let battery_scale = parse_float r (one "battery_scale") in
  let secondary_fraction = parse_float r (one "secondary_fraction") in
  let data_mean_bits, data_cv =
    match expect_fields r ~key:"data_mean_bits" ~n:3 (next_line r) with
    | [ mb; "data_cv"; cv ] -> (parse_float r mb, parse_float r cv)
    | _ -> fail ~line:r.line "malformed data_mean_bits record"
  in
  let case = case_of_string ~line:r.line (one "case") in
  let etc_index, dag_index =
    match expect_fields r ~key:"indices" ~n:2 (next_line r) with
    | [ e; d ] -> (parse_int r e, parse_int r d)
    | _ -> assert false
  in
  let rows, cols =
    match expect_fields r ~key:"etc" ~n:2 (next_line r) with
    | [ a; b ] -> (parse_int r a, parse_int r b)
    | _ -> assert false
  in
  if rows <> n_tasks then fail ~line:r.line "etc rows %d but n_tasks %d" rows n_tasks;
  let matrix =
    Array.init rows (fun _ ->
        let fields = String.split_on_char ' ' (next_line r) in
        if List.length fields <> cols then
          fail ~line:r.line "expected %d ETC entries" cols;
        Array.of_list (List.map (parse_float r) fields))
  in
  let n_edges =
    match expect_fields r ~key:"edges" ~n:1 (next_line r) with
    | [ n ] -> parse_int r n
    | _ -> assert false
  in
  let edges = ref [] in
  let bits_by_edge = Hashtbl.create (2 * max 1 n_edges) in
  for _ = 1 to n_edges do
    match String.split_on_char ' ' (next_line r) with
    | [ src; dst; bits ] ->
        let src = parse_int r src and dst = parse_int r dst in
        edges := (src, dst) :: !edges;
        Hashtbl.replace bits_by_edge (src, dst) (parse_float r bits)
    | _ -> fail ~line:r.line "malformed edge record"
  done;
  if next_line r <> "end" then fail ~line:r.line "missing 'end' terminator";
  (* reassemble *)
  let klasses =
    Array.map
      (fun (m : Agrid_platform.Machine.profile) -> m.Agrid_platform.Machine.klass)
      (Agrid_platform.Grid.machines (Agrid_platform.Grid.of_case Agrid_platform.Grid.A))
  in
  if cols <> Array.length klasses then
    fail ~line:r.line "etc must have the Case-A machine width (%d), got %d"
      (Array.length klasses) cols;
  let etc = Agrid_etc.Etc.of_matrix ~klasses matrix in
  let dag = Agrid_dag.Dag.of_edges ~n:n_tasks !edges in
  (* data sizes follow the DAG's canonical edge-id order *)
  let data_bits =
    Array.init (Agrid_dag.Dag.n_edges dag) (fun e ->
        Hashtbl.find bits_by_edge (Agrid_dag.Dag.edge dag e))
  in
  let spec =
    {
      (Spec.paper_scale ~seed ()) with
      Spec.n_tasks;
      etc_params = Agrid_etc.Etc.default_params ~n_tasks;
      dag_params = Agrid_dag.Generate.default_params ~n:n_tasks;
      tau_seconds;
      battery_scale;
      secondary_fraction;
      data_mean_bits;
      data_cv;
    }
  in
  Workload.build spec ~etc ~dag ~data_bits ~etc_index ~dag_index ~case

let load_string s = load_from_lines (String.split_on_char '\n' s)
