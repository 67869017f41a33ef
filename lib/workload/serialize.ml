(* Scenario persistence: a versioned, line-oriented text format that pins a
   scenario's full artefacts (the Case-A-width ETC matrix, the DAG with its
   per-edge data sizes, and the spec constants) so experiments can be
   reproduced across library versions even if a generator changes.
   Floats are printed with %.17g, so a save/load roundtrip is bit-exact.

   Layout (one record per line, '#' comments allowed):

     agrid-scenario v1
     seed <int>
     n_tasks <int>
     tau_seconds <float>
     battery_scale <float>
     secondary_fraction <float>
     data_mean_bits <float> data_cv <float>
     case <A|B|C>
     indices <etc> <dag>
     etc <rows> <cols>
     <cols floats>            x rows   (Case-A machine width)
     edges <count>
     <src> <dst> <bits>       x count
     end *)

exception Parse_error of { line : int; message : string }

let fail ~line fmt = Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

let case_to_string = function
  | Agrid_platform.Grid.A -> "A"
  | Agrid_platform.Grid.B -> "B"
  | Agrid_platform.Grid.C -> "C"

let case_of_string ~line = function
  | "A" -> Agrid_platform.Grid.A
  | "B" -> Agrid_platform.Grid.B
  | "C" -> Agrid_platform.Grid.C
  | s -> fail ~line "unknown case %S" s

(* ---- writing ---- *)

let save ppf (spec : Spec.t) ~etc_index ~dag_index ~case =
  Spec.validate spec;
  let etc = Workload.etc_for_spec spec ~etc_index in
  let dag = Workload.dag_for_spec spec ~dag_index in
  let data = Workload.data_for_spec spec dag ~dag_index in
  Fmt.pf ppf "agrid-scenario v1@.";
  Fmt.pf ppf "seed %d@." spec.Spec.seed;
  Fmt.pf ppf "n_tasks %d@." spec.Spec.n_tasks;
  Fmt.pf ppf "tau_seconds %.17g@." spec.Spec.tau_seconds;
  Fmt.pf ppf "battery_scale %.17g@." spec.Spec.battery_scale;
  Fmt.pf ppf "secondary_fraction %.17g@." spec.Spec.secondary_fraction;
  Fmt.pf ppf "data_mean_bits %.17g data_cv %.17g@." spec.Spec.data_mean_bits
    spec.Spec.data_cv;
  Fmt.pf ppf "case %s@." (case_to_string case);
  Fmt.pf ppf "indices %d %d@." etc_index dag_index;
  let rows = Agrid_etc.Etc.n_tasks etc and cols = Agrid_etc.Etc.n_machines etc in
  Fmt.pf ppf "etc %d %d@." rows cols;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if j > 0 then Fmt.pf ppf " ";
      Fmt.pf ppf "%.17g" (Agrid_etc.Etc.seconds etc ~task:i ~machine:j)
    done;
    Fmt.pf ppf "@."
  done;
  Fmt.pf ppf "edges %d@." (Agrid_dag.Dag.n_edges dag);
  Agrid_dag.Dag.iter_edges
    (fun e ~src ~dst -> Fmt.pf ppf "%d %d %.17g@." src dst data.(e))
    dag;
  Fmt.pf ppf "end@."

let save_file path spec ~etc_index ~dag_index ~case =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      save ppf spec ~etc_index ~dag_index ~case;
      Format.pp_print_flush ppf ())

(* ---- reading ----

   A single-pass cursor decoder: no line list, no token list, and each
   byte is looked at about once. Records are the lines of the text,
   trimmed of ASCII whitespace; blank lines and lines starting with '#'
   are skipped but counted, so a [Parse_error] names the physical line.
   Fields are separated by single spaces (two spaces make an empty field,
   which no number parses). A field is parsed where it lies: integers in
   place, floats by [Float_kernel.scan]; the field ends where the number
   does when a space, the end of the line or trailing whitespace follows.
   Anything else takes the slow path, which finds the field's real extent
   and hands it to [int_of_string] / [float_of_string]. Field counts are
   checked as fields are consumed. Before it allocates for a declared
   count, the decoder checks that the bytes left can hold that many
   records (an ETC row needs at least 2 bytes, an edge record at least
   6). *)

type cursor = {
  s : string;
  len : int;
  mutable next : int; (* start of the next physical line; > len at the end *)
  mutable line : int;
  mutable ls : int; (* start of the current record *)
  mutable tok : int; (* start of the next field, when [more] *)
  mutable more : bool; (* the current record has a field at [tok] *)
  mutable tok_start : int; (* the field just read: [tok_start, tok_end) *)
  mutable tok_end : int;
  scratch : float array;
}

let cursor s =
  {
    s;
    len = String.length s;
    next = 0;
    line = 0;
    ls = 0;
    tok = 0;
    more = false;
    tok_start = 0;
    tok_end = 0;
    scratch = [| 0. |];
  }

(* [String.trim]'s whitespace, less the line separator *)
let is_blank = function ' ' | '\012' | '\r' | '\t' -> true | _ -> false

(* first position at or after [p] that is not blank *)
let skip_blanks c p =
  let k = ref p in
  while !k < c.len && is_blank (String.unsafe_get c.s !k) do
    incr k
  done;
  !k

let at_line_end c p = p >= c.len || String.unsafe_get c.s p = '\n'

let line_end c p =
  let k = ref p in
  while not (at_line_end c !k) do
    incr k
  done;
  !k

let next_record c =
  let found = ref false in
  while not !found do
    if c.next > c.len then fail ~line:c.line "unexpected end of file";
    c.line <- c.line + 1;
    let p = skip_blanks c c.next in
    if at_line_end c p then c.next <- p + 1
    else if String.unsafe_get c.s p = '#' then c.next <- line_end c p + 1
    else begin
      found := true;
      c.ls <- p;
      c.tok <- p;
      c.more <- true
    end
  done

(* End of the current record, trailing blanks excluded. *)
let record_end c =
  let e = ref (line_end c c.ls) in
  while !e > c.ls && is_blank (String.unsafe_get c.s (!e - 1)) do
    decr e
  done;
  !e

let record_text c = String.sub c.s c.ls (record_end c - c.ls)

let n_fields c =
  let n = ref 1 in
  for k = c.ls to record_end c - 1 do
    if String.unsafe_get c.s k = ' ' then incr n
  done;
  !n

(* Does a field ending at [e] end there? A space or the line's end
   follows, or blanks up to the line's end (trailing whitespace). *)
let field_ends_at c e =
  at_line_end c e
  || String.unsafe_get c.s e = ' '
  || (is_blank (String.unsafe_get c.s e) && at_line_end c (skip_blanks c e))

(* Close the field [tok, e): a following space opens another field
   unless only blanks remain on the line. *)
let close_field c e =
  c.tok_start <- c.tok;
  c.tok_end <- e;
  if e + 1 < c.len && String.unsafe_get c.s e = ' '
     && not (is_blank (String.unsafe_get c.s (e + 1)) || String.unsafe_get c.s (e + 1) = '\n')
  then c.tok <- e + 1
  else begin
    let k = skip_blanks c e in
    if at_line_end c k then begin
      c.more <- false;
      c.next <- k + 1
    end
    else c.tok <- e + 1
  end

(* Slow path: the field at [tok] in full, as split-on-space of the
   trimmed line would give it, consumed. *)
let close_field_slow c =
  let e = ref c.tok in
  while not (at_line_end c !e || String.unsafe_get c.s !e = ' ') do
    incr e
  done;
  let stop = !e in
  close_field c stop;
  if not c.more then
    while c.tok_end > c.tok_start && is_blank (String.unsafe_get c.s (c.tok_end - 1)) do
      c.tok_end <- c.tok_end - 1
    done

let token_text c = String.sub c.s c.tok_start (c.tok_end - c.tok_start)

let span_is s ~pos ~stop lit =
  stop - pos = String.length lit
  &&
  let k = ref 0 in
  while !k < String.length lit && String.unsafe_get s (pos + !k) = String.unsafe_get lit !k do
    incr k
  done;
  !k = String.length lit

let token_is c lit = span_is c.s ~pos:c.tok_start ~stop:c.tok_end lit

(* The whole record is [lit]: consumes it. *)
let record_is c lit =
  c.more <- false;
  c.next <- line_end c c.ls + 1;
  span_is c.s ~pos:c.ls ~stop:(record_end c) lit

(* The next field as an int: plain decimal in place, anything else
   through [int_of_string] (which also takes 0x.., _ separators, ...). *)
let int_field c =
  let p = c.tok in
  let neg = p < c.len && String.unsafe_get c.s p = '-' in
  let k = ref (if neg then p + 1 else p) and v = ref 0 in
  let first = !k in
  while !k < c.len && String.unsafe_get c.s !k >= '0' && String.unsafe_get c.s !k <= '9' do
    v := (!v * 10) + Char.code (String.unsafe_get c.s !k) - 48;
    incr k
  done;
  let digits = !k - first in
  if digits >= 1 && digits <= 18 && field_ends_at c !k then begin
    close_field c !k;
    if neg then - !v else !v
  end
  else begin
    close_field_slow c;
    match int_of_string_opt (token_text c) with
    | Some v -> v
    | None -> fail ~line:c.line "not an integer: %S" (token_text c)
  end

(* Store the next field as a float in [dst.(i)]. Every float a scenario
   carries is a finite quantity; the kernel only ever stores finite
   values, so only the fallback can meet (and must refuse) a NaN or an
   infinity. *)
let float_field_into c dst i =
  let e = Float_kernel.scan c.s ~pos:c.tok ~limit:c.len dst i in
  if e >= 0 && field_ends_at c e then close_field c e
  else begin
    close_field_slow c;
    match float_of_string_opt (token_text c) with
    | Some v when Float.is_finite v -> dst.(i) <- v
    | Some _ -> fail ~line:c.line "not a finite float: %S" (token_text c)
    | None -> fail ~line:c.line "not a float: %S" (token_text c)
  end

let float_field c =
  float_field_into c c.scratch 0;
  c.scratch.(0)

(* Next record must be [key] followed by [n] fields; leaves the cursor
   on the first field. A parse error in a field of a record with the
   wrong field count reports the count. *)
let expect c ~key ~n =
  next_record c;
  close_field_slow c;
  if not (token_is c key) then
    fail ~line:c.line "expected %S record, got %S" key (record_text c);
  if n_fields c - 1 <> n then fail ~line:c.line "%s: expected %d fields" key n

let one_int c key =
  expect c ~key ~n:1;
  int_field c

let one_float c key =
  expect c ~key ~n:1;
  float_field c

(* Reject a declared record count the rest of the text cannot hold. *)
let check_count c ~what ~count ~min_bytes =
  let left = max 0 (c.len - c.next) in
  if count > left / min_bytes then
    fail ~line:c.line "%s declares %d but only %d bytes follow" what count left

let read_etc_row c ~cols =
  next_record c;
  let wrong_count () = fail ~line:c.line "expected %d ETC entries" cols in
  (* a record's field count is at most its length *)
  if cols < 0 || cols > c.len - c.ls then wrong_count ();
  let row = Array.make cols 0. in
  for j = 0 to cols - 1 do
    if not c.more then wrong_count ();
    match float_field_into c row j with
    | () -> ()
    | exception (Parse_error _ as e) -> if n_fields c <> cols then wrong_count () else raise e
  done;
  if c.more then wrong_count ();
  row

let read_edge c ~src ~dst ~bits k =
  next_record c;
  let malformed () = fail ~line:c.line "malformed edge record" in
  match
    src.(k) <- int_field c;
    if not c.more then malformed ();
    dst.(k) <- int_field c;
    if not c.more then malformed ();
    float_field_into c bits k;
    if c.more then malformed ()
  with
  | () -> ()
  | exception (Parse_error _ as e) -> if n_fields c <> 3 then malformed () else raise e

let case_a_klasses =
  Array.map
    (fun (m : Agrid_platform.Machine.profile) -> m.Agrid_platform.Machine.klass)
    (Agrid_platform.Grid.machines (Agrid_platform.Grid.of_case Agrid_platform.Grid.A))

let decode s =
  let c = cursor s in
  next_record c;
  if not (record_is c "agrid-scenario v1") then
    fail ~line:c.line "missing 'agrid-scenario v1' header";
  let seed = one_int c "seed" in
  let n_tasks = one_int c "n_tasks" in
  let tau_seconds = one_float c "tau_seconds" in
  let battery_scale = one_float c "battery_scale" in
  let secondary_fraction = one_float c "secondary_fraction" in
  expect c ~key:"data_mean_bits" ~n:3;
  let mb = c.tok in
  close_field_slow c;
  close_field_slow c;
  if not (token_is c "data_cv") then fail ~line:c.line "malformed data_mean_bits record";
  let data_cv = float_field c in
  c.tok <- mb;
  c.more <- true;
  let data_mean_bits = float_field c in
  expect c ~key:"case" ~n:1;
  close_field_slow c;
  let case = case_of_string ~line:c.line (token_text c) in
  expect c ~key:"indices" ~n:2;
  let etc_index = int_field c in
  let dag_index = int_field c in
  expect c ~key:"etc" ~n:2;
  let rows = int_field c in
  let cols = int_field c in
  if rows <> n_tasks then fail ~line:c.line "etc rows %d but n_tasks %d" rows n_tasks;
  if rows < 0 then fail ~line:c.line "etc: negative row count %d" rows;
  check_count c ~what:"etc rows" ~count:rows ~min_bytes:2;
  let matrix = Array.make rows [||] in
  for i = 0 to rows - 1 do
    matrix.(i) <- read_etc_row c ~cols
  done;
  let n_edges = one_int c "edges" in
  check_count c ~what:"edges count" ~count:n_edges ~min_bytes:6;
  (* a negative count reads no record, as it always has *)
  let m = max 0 n_edges in
  let src = Array.make m 0 and dst = Array.make m 0 and bits = Array.make m 0. in
  for k = 0 to m - 1 do
    read_edge c ~src ~dst ~bits k
  done;
  next_record c;
  if not (record_is c "end") then fail ~line:c.line "missing 'end' terminator";
  if cols <> Array.length case_a_klasses then
    fail ~line:c.line "etc must have the Case-A machine width (%d), got %d"
      (Array.length case_a_klasses) cols;
  let etc = Agrid_etc.Etc.of_matrix ~klasses:case_a_klasses matrix in
  (* data sizes follow the DAG's canonical edge-id order; a repeated
     (src, dst) keeps its last record's size *)
  let dag, records = Agrid_dag.Dag.of_edge_arrays ~n:n_tasks src dst in
  let data_bits = Array.make (Array.length records) 0. in
  for e = 0 to Array.length records - 1 do
    data_bits.(e) <- bits.(records.(e))
  done;
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

let load_string = decode

(* [input_line] semantics: a final newline does not open one more line,
   and an empty file has none. *)
let load_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length text in
  if n = 0 then fail ~line:0 "unexpected end of file"
  else if text.[n - 1] = '\n' then decode (String.sub text 0 (n - 1))
  else decode text

let to_string spec ~etc_index ~dag_index ~case =
  Fmt.str "%a"
    (fun ppf () -> save ppf spec ~etc_index ~dag_index ~case)
    ()

(* ---- scenario references (the workload half of `agrid-job/1`) ----

   A scenario reference names a workload without carrying one: either the
   generator coordinates the CLI takes (seed/scale/etc/dag/case) or a
   pinned `agrid-scenario v1` text (the format above) embedded as one
   JSON string. The scenario service's job envelope composes this with
   scheduler parameters; keeping the codec here keeps "what scenario"
   decoupled from "how to schedule it". *)

type scenario_ref =
  | Generated of {
      seed : int;
      scale : float;
      etc_index : int;
      dag_index : int;
      case : Agrid_platform.Grid.case;
    }
  | Pinned of string

let spec_for ~seed ~scale =
  if scale >= 1. then Spec.paper_scale ~seed ()
  else Spec.scaled ~seed ~factor:scale ()

let realize = function
  | Pinned text -> load_string text
  | Generated { seed; scale; etc_index; dag_index; case } ->
      Workload.build (spec_for ~seed ~scale) ~etc_index ~dag_index ~case

module Json = Agrid_obs.Json

let scenario_ref_to_json = function
  | Generated { seed; scale; etc_index; dag_index; case } ->
      Json.Obj
        [
          ("kind", Json.Str "generated");
          ("seed", Json.Int seed);
          ("scale", Json.Flt scale);
          ("etc", Json.Int etc_index);
          ("dag", Json.Int dag_index);
          ("case", Json.Str (case_to_string case));
        ]
  | Pinned text -> Json.Obj [ ("kind", Json.Str "pinned"); ("text", Json.Str text) ]

let scenario_ref_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Fmt.str "scenario: missing or mistyped field %S" name)
  in
  match Json.get_string "kind" j with
  | Some "pinned" ->
      let* text = field "text" Json.to_string_value in
      Ok (Pinned text)
  | Some "generated" ->
      let* seed = field "seed" Json.to_int in
      let* scale = field "scale" Json.to_float in
      let* etc_index = field "etc" Json.to_int in
      let* dag_index = field "dag" Json.to_int in
      let* case_name = field "case" Json.to_string_value in
      let* case =
        match case_name with
        | "A" -> Ok Agrid_platform.Grid.A
        | "B" -> Ok Agrid_platform.Grid.B
        | "C" -> Ok Agrid_platform.Grid.C
        | s -> Error (Fmt.str "scenario: unknown case %S" s)
      in
      if not (Float.is_finite scale && scale > 0.) then
        Error (Fmt.str "scenario: scale must be a positive finite number")
      else Ok (Generated { seed; scale; etc_index; dag_index; case })
  | Some other -> Error (Fmt.str "scenario: unknown kind %S" other)
  | None -> Error "scenario: missing or mistyped field \"kind\""
