(* Self-contained JSON values: an emitter and a recursive-descent parser.
   Nothing in this repository may depend on an external JSON package, yet
   the observability tooling both writes machine-readable artefacts
   (telemetry JSONL, decision ledgers, BENCH_obs.json) and reads them back
   (`agrid explain`, `agrid ledger-diff`, `check_regression.exe`). This
   module is the single shared spelling of both directions.

   Emission policy: non-finite floats have no JSON representation and are
   emitted as [null]; parsing maps [null] back to [Null] (callers that
   expect a float treat it as nan — see {!to_float}). Integers survive a
   round trip exactly; floats go through ["%.9g"]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Flt of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- emission ---- *)

(* Word-at-a-time scanning. Eight bytes are read as one [int64] and
   tested with the "has a zero byte" trick: [(w - 0x01..01) land lnot w
   land 0x80..80] flags the lowest zero byte of [w] exactly (higher flags
   may be spurious, which never matters: only the lowest is used). XOR
   with a repeated byte turns "is that byte" into "is zero"; subtracting
   0x20..20 instead flags "below 0x20". *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* the eight bytes from [i], the byte at [i] lowest *)
let[@inline] word s i = if Sys.big_endian then bswap64 (get64u s i) else get64u s i

(* the byte index of the lowest flag of [flags] (non-zero): count the
   whole bytes below that flag by summing one bit per byte *)
let[@inline] first_flagged flags =
  let open Int64 in
  let below = sub (logand flags (neg flags)) 1L in
  to_int (shift_right_logical (mul (logand below 0x0101010101010101L) 0x0101010101010101L) 56)
  - 1

(* The first index from [i] of a quote or a backslash, or with
   [~controls] also of a control character below 0x20, or [n]: the bytes
   the emitter escapes, and those a string body stops at. *)
let rec next_special ~controls s i n =
  if i + 8 > n then
    if i = n then n
    else
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || (controls && c < ' ') then i
      else next_special ~controls s (i + 1) n
  else
    let w = word s i in
    let open Int64 in
    let q = logxor w 0x2222222222222222L and bs = logxor w 0x5C5C5C5C5C5C5C5CL in
    let hits =
      logor
        (logand (sub q 0x0101010101010101L) (lognot q))
        (logand (sub bs 0x0101010101010101L) (lognot bs))
    in
    let hits =
      if controls then logor hits (logand (sub w 0x2020202020202020L) (lognot w)) else hits
    in
    let flags = logand hits 0x8080808080808080L in
    if flags = 0L then next_special ~controls s (i + 8) n else i + first_flagged flags

(* Strings go out run-wise: find the next byte that needs escaping and
   blit the clean run before it in one [Buffer.add_substring]. *)
let hex_digits = "0123456789abcdef"

let rec add_runs b s run =
  let i = next_special ~controls:true s run (String.length s) in
  Buffer.add_substring b s run (i - run);
  if i < String.length s then begin
    (match String.unsafe_get s i with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 0xf]);
    add_runs b s (i + 1)
  end

let buf_add_string b s =
  Buffer.add_char b '"';
  add_runs b s 0;
  Buffer.add_char b '"'

(* The primitive behind [Printf.sprintf "%.9g"]: the same bytes, without
   interpreting a format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr x = if Float.is_finite x then format_float "%.9g" x else "null"

let rec buf_add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Flt x -> Buffer.add_string b (float_repr x)
  | Str s -> buf_add_string b s
  | Arr [] -> Buffer.add_string b "[]"
  | Arr (v :: rest) ->
      Buffer.add_char b '[';
      buf_add b v;
      add_items b rest;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj ((k, v) :: rest) ->
      Buffer.add_char b '{';
      add_field b k v;
      add_fields b rest;
      Buffer.add_char b '}'

and add_items b = function
  | [] -> ()
  | v :: rest ->
      Buffer.add_char b ',';
      buf_add b v;
      add_items b rest

and add_field b k v =
  buf_add_string b k;
  Buffer.add_char b ':';
  buf_add b v

and add_fields b = function
  | [] -> ()
  | (k, v) :: rest ->
      Buffer.add_char b ',';
      add_field b k v;
      add_fields b rest

(* Room for [v] printed, so the buffer seldom grows: a long string is
   blitted once instead of through every doubling. Numbers take at most
   20 bytes; strings get a sixteenth extra for escapes. *)
let rec size_hint = function
  | Null | Bool _ -> 5
  | Int _ | Flt _ -> 20
  | Str s -> str_hint s
  | Arr l -> List.fold_left (fun acc v -> acc + 1 + size_hint v) 2 l
  | Obj l -> List.fold_left (fun acc (k, v) -> acc + 2 + str_hint k + size_hint v) 2 l

and str_hint s = String.length s + (String.length s lsr 4) + 2

let to_string v =
  let b = Buffer.create (size_hint v) in
  buf_add b v;
  Buffer.contents b

(* ---- parsing ---- *)

exception Parse_error of string

let parse_fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* [shrink]: what the escapes of the string [scan_string] last scanned
   save against their spelling, so its decoded length is known before
   anything is allocated. *)
type cursor = { src : string; mutable pos : int; mutable shrink : int }

let at c ch = c.pos < String.length c.src && String.unsafe_get c.src c.pos = ch

let skip_ws c =
  let src = c.src in
  let p = ref c.pos in
  while
    !p < String.length src
    && match String.unsafe_get src !p with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr p
  done;
  c.pos <- !p

let expect c ch =
  let p = c.pos in
  if p >= String.length c.src then
    parse_fail "at %d: expected %C, found end of input" p ch;
  let g = String.unsafe_get c.src p in
  if g <> ch then parse_fail "at %d: expected %C, found %C" p ch g;
  c.pos <- p + 1

let rec same_bytes src p word i =
  i = String.length word
  || String.unsafe_get src (p + i) = String.unsafe_get word i
     && same_bytes src p word (i + 1)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && same_bytes c.src c.pos word 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_fail "at %d: unrecognised literal" c.pos

let hex_value = function
  | '0' .. '9' as d -> Char.code d - Char.code '0'
  | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
  | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
  | _ -> -1

(* The code point spelled by the four bytes at [p] after a [\u], or -1.
   The accepted spellings are those of [int_of_string ("0x" ^ hex)]: a
   hex digit first, then hex digits or underscores, which are skipped. *)
let u_code src p =
  let code = ref (hex_value (String.unsafe_get src p)) in
  for k = p + 1 to p + 3 do
    match String.unsafe_get src k with
    | '_' -> ()
    | ch ->
        let d = hex_value ch in
        code := if !code < 0 || d < 0 then -1 else (!code lsl 4) lor d
  done;
  !code

(* UTF-8 length of a [\u] code point (the writer never produces one of
   0x80 or more, but the reader is tolerant) *)
let utf8_length code = if code < 0x80 then 1 else if code < 0x800 then 2 else 3

(* First pass over a string body from [p]: validate every escape in the
   order the decoder meets them, and return the closing quote's index
   with the escapes' saving in [c.shrink]. *)
let rec scan_string c p shrink =
  let src = c.src in
  let p = next_special ~controls:false src p (String.length src) in
  if p >= String.length src then parse_fail "unterminated string";
  if String.unsafe_get src p = '"' then begin
    c.shrink <- shrink;
    p
  end
  else begin
    if p + 1 >= String.length src then parse_fail "unterminated escape";
    match String.unsafe_get src (p + 1) with
    | '"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f' -> scan_string c (p + 2) (shrink + 1)
    | 'u' ->
        if p + 6 > String.length src then parse_fail "truncated \\u escape";
        let code = u_code src (p + 2) in
        if code < 0 then parse_fail "bad \\u escape %S" (String.sub src (p + 2) 4);
        scan_string c (p + 6) (shrink + 6 - utf8_length code)
    | e -> parse_fail "bad escape \\%C" e
  end

(* The byte a one-letter escape stands for: a control character for n, r,
   t, b and f; the escaped byte itself for the quote, backslash and
   slash. *)
let unescaped = function
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | esc -> esc

(* Second pass, over a body [scan_string] accepted: blit each clean run
   from [p] into [dst] at [q] and decode the escape after it. *)
let rec unescape src p dst q =
  let e = next_special ~controls:false src p (String.length src) in
  Bytes.blit_string src p dst q (e - p);
  let q = q + (e - p) in
  if String.unsafe_get src e = '\\' then
    match String.unsafe_get src (e + 1) with
    | 'u' ->
        let code = u_code src (e + 2) in
        if code < 0x80 then Bytes.unsafe_set dst q (Char.chr code)
        else if code < 0x800 then begin
          Bytes.unsafe_set dst q (Char.chr (0xC0 lor (code lsr 6)));
          Bytes.unsafe_set dst (q + 1) (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Bytes.unsafe_set dst q (Char.chr (0xE0 lor (code lsr 12)));
          Bytes.unsafe_set dst (q + 1) (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Bytes.unsafe_set dst (q + 2) (Char.chr (0x80 lor (code land 0x3F)))
        end;
        unescape src (e + 6) dst (q + utf8_length code)
    | esc ->
        Bytes.unsafe_set dst q (unescaped esc);
        unescape src (e + 2) dst (q + 1)

(* One allocation per string: a [String.sub] when nothing is escaped,
   otherwise an exact-size [Bytes] decoded into. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let close = scan_string c start 0 in
  c.pos <- close + 1;
  if c.shrink = 0 then String.sub c.src start (close - start)
  else begin
    let dst = Bytes.create (close - start - c.shrink) in
    unescape c.src start dst 0;
    Bytes.unsafe_to_string dst
  end

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
  if c.pos >= String.length c.src then parse_fail "unexpected end of input";
  match String.unsafe_get c.src c.pos with
  | '"' -> Str (parse_string c)
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (members depth c)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else Arr (elements depth c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> parse_number c

and[@tail_mod_cons] members depth c =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value (depth + 1) c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    (key, v) :: members depth c
  end
  else begin
    expect c '}';
    [ (key, v) ]
  end

and[@tail_mod_cons] elements depth c =
  let v = parse_value (depth + 1) c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    v :: elements depth c
  end
  else begin
    expect c ']';
    [ v ]
  end

let parse s =
  let c = { src = s; pos = 0; shrink = 0 } in
  let v = parse_value 0 c in
  skip_ws c;
  if c.pos <> String.length s then
    parse_fail "trailing input at offset %d" c.pos;
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Flt f -> Some f
  | Int i -> Some (float_of_int i)
  | Null -> Some Float.nan  (* the writer's spelling of a non-finite float *)
  | _ -> None

let to_string_value = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None

let get_int key v = Option.bind (member key v) to_int
let get_float key v = Option.bind (member key v) to_float
let get_string key v = Option.bind (member key v) to_string_value
