(* The [Agrid_obs.Json] emitter and parser as they were before the codec
   went run-wise (a per-byte [Buffer] loop each way, ["%.9g"] through
   [Printf], an option per peeked byte), kept verbatim as the
   differential reference for test_fuzz: on every value [to_string]
   must print the same bytes, and on every line [parse] must return the
   same value or raise [Parse_error] with the same message. It shares
   [Agrid_obs.Json]'s type and exception so outcomes compare directly. *)

type t = Agrid_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Flt of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- emission ---- *)

let buf_add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let rec buf_add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Flt x -> Buffer.add_string b (float_repr x)
  | Str s -> buf_add_string b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          buf_add b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_add_string b k;
          Buffer.add_char b ':';
          buf_add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  buf_add b v;
  Buffer.contents b

(* ---- parsing ---- *)

exception Parse_error = Agrid_obs.Json.Parse_error

let parse_fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some g when g = ch -> c.pos <- c.pos + 1
  | Some g -> parse_fail "at %d: expected %C, found %C" c.pos ch g
  | None -> parse_fail "at %d: expected %C, found end of input" c.pos ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_fail "at %d: unrecognised literal" c.pos

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.src then parse_fail "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' -> (
        if c.pos >= String.length c.src then parse_fail "unterminated escape";
        let e = c.src.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e; loop ()
        | 'n' -> Buffer.add_char b '\n'; loop ()
        | 'r' -> Buffer.add_char b '\r'; loop ()
        | 't' -> Buffer.add_char b '\t'; loop ()
        | 'b' -> Buffer.add_char b '\b'; loop ()
        | 'f' -> Buffer.add_char b '\012'; loop ()
        | 'u' ->
            if c.pos + 4 > String.length c.src then parse_fail "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            c.pos <- c.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> parse_fail "bad \\u escape %S" hex
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some code ->
                (* non-ASCII escapes: emit UTF-8 (the writer never produces
                   them, but be a tolerant reader) *)
                if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end);
            loop ()
        | e -> parse_fail "bad escape \\%C" e)
    | ch -> Buffer.add_char b ch; loop ()
  in
  loop ()

(* Deep nesting is never produced by our writers but arrives from fuzzed
   or adversarial inputs; bound the recursion so a "[[[[..." bomb raises
   [Parse_error] instead of overflowing the stack. *)
let max_depth = 512

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.src && numeric c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.src start (c.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Flt f
      | None -> parse_fail "at %d: bad number %S" start tok)

let rec parse_value depth c =
  if depth > max_depth then
    parse_fail "at %d: nesting deeper than %d" c.pos max_depth;
  skip_ws c;
  match peek c with
  | None -> parse_fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        expect c '}';
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value (depth + 1) c in
          fields := (key, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' -> expect c ','; members ()
          | _ -> expect c '}'
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        expect c ']';
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          items := parse_value (depth + 1) c :: !items;
          skip_ws c;
          match peek c with
          | Some ',' -> expect c ','; elements ()
          | _ -> expect c ']'
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value 0 c in
  skip_ws c;
  if c.pos <> String.length s then
    parse_fail "trailing input at offset %d" c.pos;
  v
