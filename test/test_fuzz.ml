(* Fuzz suite for the hand-rolled parsers ([Agrid_obs.Json] and
   [Agrid_report.Csv.parse]) — seeded mutation/truncation corpora from
   the in-tree Splitmix64, so every case replays from the suite seed.

   Contracts pinned here:
   - [Json.parse] either returns a value or raises [Json.Parse_error] —
     never any other exception (a ["[[[["-nesting bomb used to overflow
     the stack; the parser now bounds recursion depth);
   - printing is a canonicalisation: [to_string] of any accepted value
     re-parses, and print/parse reaches a fixed point within two rounds
     (one round may still collapse float spellings: ["-0.0"] prints as
     ["-0"], which re-parses as [Int 0]);
   - [Csv.parse] raises only [Invalid_argument] (unterminated quote) and
     rows obtained from a successful parse round-trip exactly through
     [Csv.to_string]. *)

module Json = Agrid_obs.Json
module Csv = Agrid_report.Csv
module Rng = Agrid_prng.Splitmix64

(* ---- shared mutation machinery ---- *)

let interesting =
  [|
    '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '.'; '-'; '+'; 'e'; 'E'; '0';
    '9'; 'n'; 't'; 'f'; 'u'; ' '; '\n'; '\r'; '\000'; '\255';
  |]

let mutate rng s =
  let n = String.length s in
  if n = 0 then String.make 1 interesting.(Rng.next_int rng (Array.length interesting))
  else
    let pos = Rng.next_int rng n in
    let ch () = interesting.(Rng.next_int rng (Array.length interesting)) in
    match Rng.next_int rng 4 with
    | 0 -> String.sub s 0 pos (* truncate *)
    | 1 ->
        (* replace one byte *)
        let b = Bytes.of_string s in
        Bytes.set b pos (ch ());
        Bytes.to_string b
    | 2 -> String.sub s 0 pos ^ String.make 1 (ch ()) ^ String.sub s pos (n - pos)
    | _ -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)

let rec mutate_n rng k s = if k = 0 then s else mutate_n rng (k - 1) (mutate rng s)

let qcheck_rand seed = Random.State.make [| seed |]

(* ---- JSON ---- *)

let json_corpus () =
  (* real artefacts: a populated sink through both exporters *)
  let sink = Agrid_obs.Sink.create ~stride:1 () in
  Agrid_obs.Sink.add sink "fuzz/counter" 3;
  Agrid_obs.Sink.observe sink "fuzz/hist" ~bounds:[| 1.0; 10.0 |] 0.5;
  Agrid_obs.Sink.observe sink "fuzz/hist" ~bounds:[| 1.0; 10.0 |] 2.5;
  Agrid_obs.Sink.span sink "fuzz/span" (fun () -> ());
  [ Agrid_obs.Export.summary_json ~total_seconds:1.25 sink ]
  @ Agrid_obs.Export.jsonl_lines sink
  @ [
      (* hand-picked shapes the artefacts do not cover *)
      "null"; "true"; "false"; "-0.0"; "1e-7"; "1e99999"; "[1,2,3]";
      "[1.0,2.5e10,-0.0,\"x\"]";
      "{\"a\":1.5,\"b\":[null,\"line\\nbreak\",{\"c\":{}}]}";
      "\"\\u00e9\\u20ac\\t\""; "  {  \"k\" :\r\n [ ] } ";
      "99999999999999999999";
    ]

let check_json_input s =
  match Json.parse s with
  | exception Json.Parse_error _ -> ()
  | exception e ->
      Alcotest.failf "Json.parse raised %s on %S" (Printexc.to_string e) s
  | v -> (
      let s1 = Json.to_string v in
      match Json.parse s1 with
      | exception e ->
          Alcotest.failf "re-parse of printed %S raised %s" s1
            (Printexc.to_string e)
      | v1 ->
          let s2 = Json.to_string v1 in
          let s3 = Json.to_string (Json.parse s2) in
          if s2 <> s3 then
            Alcotest.failf
              "print/parse fixed point not reached from %S: %S vs %S" s s2 s3)

let test_json_fuzz () =
  let corpus = Array.of_list (json_corpus ()) in
  Array.iter check_json_input corpus;
  let rng = Rng.of_int 0xF002 in
  for _ = 1 to 1200 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    check_json_input (mutate_n rng (1 + Rng.next_int rng 3) base)
  done

let test_json_depth_bomb () =
  (* adversarial nesting raises Parse_error instead of blowing the stack *)
  let check s =
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "depth bomb raised %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "depth bomb parsed"
  in
  check (String.make 50_000 '[');
  check (String.concat "" [ String.make 600 '['; "1"; String.make 600 ']' ]);
  check (String.concat "" (List.init 600 (fun _ -> "{\"k\":") @ [ "1" ]));
  (* while realistic nesting still parses *)
  let deep n = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  match Json.parse (deep 100) with
  | _ -> ()
  | exception e ->
      Alcotest.failf "100-deep nesting rejected: %s" (Printexc.to_string e)

(* ---- JSON: differential against the reference model ----

   Contracts pinned here:
   - on random values [Json.to_string] prints the same bytes as
     [Json_reference.to_string] (strings over every byte 0-255, quotes,
     backslashes and control characters; non-finite floats; nesting);
   - on random and mutated lines [Json.parse] returns a value equal bit
     for bit to [Json_reference.parse]'s, or both raise [Parse_error]
     with the same message (every escape, [\u] below 0x80, below 0x800
     and above, truncation inside an escape, unterminated strings, bad
     literals, nesting past 512). *)

module Json_ref = Json_reference

let rec json_equal a b =
  match (a, b) with
  | Json.Flt x, Json.Flt y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, x) (l, y) -> String.equal k l && json_equal x y) xs ys
  | _ -> a = b

let parse_outcome parse s =
  match parse s with v -> Ok v | exception Json.Parse_error m -> Error m

let parse_agrees s =
  match (parse_outcome Json_ref.parse s, parse_outcome Json.parse s) with
  | Ok a, Ok b when json_equal a b -> true
  | Error m, Error m' when m = m' -> true
  | expected, got ->
      let show = function
        | Ok v -> "value " ^ Json_ref.to_string v
        | Error m -> "Parse_error " ^ m
      in
      QCheck2.Test.fail_reportf "parse disagrees on %S:@.  reference: %s@.  codec:     %s" s
        (show expected) (show got)

(* bytes the emitter and the string scanner treat specially *)
let json_special_chars =
  [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000'; '\031'; '\127'; '\128';
    '\255'; 'u'; 'a' ]

let json_string_gen =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 40);
        string_size ~gen:(oneofl json_special_chars) (int_range 0 20);
        string_printable;
      ])

let json_value_gen =
  QCheck2.Gen.(
    let flt =
      oneof [ float; oneofl [ Float.nan; infinity; neg_infinity; -0.; 0.; 1e-7; 1e300 ] ]
    in
    let leaf =
      oneof
        [
          pure Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) int;
          map (fun f -> Json.Flt f) flt;
          map (fun s -> Json.Str s) json_string_gen;
        ]
    in
    let tree =
      sized
      @@ fix (fun self n ->
             if n <= 1 then leaf
             else
               frequency
                 [
                   (2, leaf);
                   (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 3))));
                   ( 1,
                     map
                       (fun l -> Json.Obj l)
                       (list_size (int_range 0 4) (pair json_string_gen (self (n / 3)))) );
                 ])
    in
    (* and a few narrow towers, deeper than [sized] reaches *)
    let rec wrap k v = if k = 0 then v else wrap (k - 1) (Json.Arr [ v ]) in
    frequency [ (4, tree); (1, map2 wrap (int_range 0 40) leaf) ])

(* String bodies stitched from escape fragments: every one-letter escape,
   [\u] spellings below 0x80, below 0x800 and above, underscores and bad
   digits, and a bare backslash — then cut anywhere, so truncation lands
   inside escapes and before the closing quote. *)
let json_escape_line_gen =
  QCheck2.Gen.(
    let fragment =
      oneofl
        [
          "a"; "xyz"; "\\\""; "\\\\"; "\\/"; "\\n"; "\\r"; "\\t"; "\\b"; "\\f"; "\\u0041";
          "\\u001f"; "\\u00e9"; "\\u07FF"; "\\u0800"; "\\u20ac"; "\\uFFFF"; "\\u_1_2";
          "\\u1__"; "\\u00g0"; "\\u"; "\\x"; "\\"; "\""; "\n"; "\255";
        ]
    in
    map3
      (fun parts cut wrap ->
        let body = "\"" ^ String.concat "" parts ^ "\"" in
        let line = if wrap then "{\"k\":" ^ body ^ "}" else body in
        if cut = 0 then line else String.sub line 0 (max 0 (String.length line - cut)))
      (list_size (int_range 0 8) fragment)
      (frequencyl [ (3, 0); (1, 1); (1, 2); (1, 3); (1, 5) ])
      bool)

let test_json_emitter_differential () =
  QCheck2.Test.check_exn ~rand:(qcheck_rand 0x3E17)
    (QCheck2.Test.make ~count:3_000 ~name:"to_string = reference to_string"
       ~print:Json_ref.to_string json_value_gen (fun v ->
         let expected = Json_ref.to_string v and got = Json.to_string v in
         String.equal expected got
         || QCheck2.Test.fail_reportf "reference %S@.codec     %S" expected got))

let test_json_parser_differential () =
  QCheck2.Test.check_exn ~rand:(qcheck_rand 0x9A25)
    (QCheck2.Test.make ~count:3_000 ~name:"parse = reference parse on printed values"
       ~print:Json_ref.to_string json_value_gen (fun v -> parse_agrees (Json.to_string v)));
  QCheck2.Test.check_exn ~rand:(qcheck_rand 0x9A26)
    (QCheck2.Test.make ~count:3_000 ~name:"parse = reference parse on mutated lines"
       ~print:(fun (v, seed, k) -> Fmt.str "%s (mutation seed %d, %d rounds)" (Json_ref.to_string v) seed k)
       QCheck2.Gen.(triple json_value_gen int (int_range 1 3))
       (fun (v, seed, k) -> parse_agrees (mutate_n (Rng.of_int seed) k (Json.to_string v))));
  QCheck2.Test.check_exn ~rand:(qcheck_rand 0x9A27)
    (QCheck2.Test.make ~count:5_000 ~name:"parse = reference parse on escape-heavy strings"
       ~print:(Fmt.str "%S") json_escape_line_gen parse_agrees);
  let nest n opener closer = String.make n opener ^ "1" ^ String.make n closer in
  List.iter
    (fun s -> ignore (parse_agrees s))
    ([
       "true"; "tru"; "t"; "nul"; "null "; "nulL"; "falsy"; "false"; "[true,fals]"; "";
       "   "; "\""; "\"abc"; "\"\\"; "\"\\u12"; "\"\\u123"; "\"\\u1234"; "\"\\q\"";
       "{\"a\" 1}"; "{\"a\":1,}"; "{,}"; "{1:2}"; "[1,]"; "[1 2]"; "-"; "+"; "1-2";
       "+5"; "-0"; "007"; "1e5"; "-1.5e-3"; "123456789012345678"; "1234567890123456789";
       "-999999999999999999"; "99999999999999999999"; "4611686018427387903";
       "4611686018427387904"; "1.5]"; "x"; "[]"; "{}"; "[ ]"; "{ }"; "[1] x";
     ]
    @ List.concat_map
        (fun n ->
          [
            nest n '[' ']';
            String.concat "" (List.init n (fun _ -> "{\"k\":")) ^ "1" ^ String.make n '}';
          ])
        [ 511; 512; 513; 600 ])

(* ---- CSV ---- *)

(* The metrics CSV the exporter writes for [sink]. *)
let metrics_csv sink =
  let prefix = Filename.temp_file "agrid_fuzz" "" in
  let paths = Agrid_obs.Export.write_csv_files ~prefix sink in
  let text = In_channel.with_open_bin (prefix ^ "_metrics.csv") In_channel.input_all in
  List.iter Sys.remove (prefix :: paths);
  text

let csv_corpus () =
  let sink = Agrid_obs.Sink.create () in
  Agrid_obs.Sink.add sink "fuzz/counter" 7;
  Agrid_obs.Sink.observe sink "fuzz/hist" ~bounds:[| 1.0; 10.0 |] 1.5;
  [
    Csv.to_string ~header:[ "a"; "b" ]
      [
        [ "1"; "x,y" ];
        [ "he said \"hi\""; "line\nbreak" ];
        [ ""; "trailing" ];
      ];
    metrics_csv sink;
    "a,b\r\n1,2\r\n";
    "one\n\ntwo\n";
    "\"quoted,field\",plain\n";
  ]

let check_csv_input s =
  match Csv.parse s with
  | exception Invalid_argument _ -> ()
  | exception e ->
      Alcotest.failf "Csv.parse raised %s on %S" (Printexc.to_string e) s
  | [] -> ()
  | header :: body -> (
      (* accepted rows round-trip exactly through the writer *)
      let s1 = Csv.to_string ~header body in
      match Csv.parse s1 with
      | exception e ->
          Alcotest.failf "re-parse of written CSV %S raised %s" s1
            (Printexc.to_string e)
      | rows1 ->
          if rows1 <> header :: body then
            Alcotest.failf "CSV round trip diverges on %S (rewritten %S)" s s1)

let test_csv_fuzz () =
  let corpus = Array.of_list (csv_corpus ()) in
  Array.iter check_csv_input corpus;
  let rng = Rng.of_int 0xF003 in
  for _ = 1 to 1000 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    check_csv_input (mutate_n rng (1 + Rng.next_int rng 3) base)
  done

(* ---- agrid-job/1 round trips (scenario service wire format) ----

   Contracts pinned here:
   - [Serialize.scenario_ref_of_json ∘ scenario_ref_to_json] is the
     identity (floats are drawn from short-decimal grids so the JSON
     emitter's %.9g spelling is lossless);
   - [Codec.parse_request ∘ Json.to_string ∘ Codec.job_to_json] returns
     [Ok (Submit spec)] for every well-formed job spec;
   - both parsers are total on hostile input: mutated envelopes come
     back as [Ok] or [Error], never as an exception. *)

module Serialize = Agrid_workload.Serialize
module Codec = Agrid_serve.Codec
module Job = Agrid_serve.Job

let pick rng arr = arr.(Rng.next_int rng (Array.length arr))

let random_scenario_ref rng =
  if Rng.next_int rng 5 = 0 then
    (* a real pinned document, not a synthetic string: realize must work *)
    let spec = Agrid_workload.Spec.scaled ~seed:(Rng.next_int rng 1000) ~factor:0.03 () in
    Serialize.Pinned
      (Serialize.to_string spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A)
  else
    Serialize.Generated
      {
        seed = Rng.next_int rng 100_000;
        scale = pick rng [| 0.03; 0.0625; 0.125; 0.5; 1.0 |];
        etc_index = Rng.next_int rng 4;
        dag_index = Rng.next_int rng 4;
        case = pick rng [| Agrid_platform.Grid.A; Agrid_platform.Grid.B; Agrid_platform.Grid.C |];
      }

let random_job_spec rng =
  let events =
    match Rng.next_int rng 3 with
    | 0 -> []
    | 1 -> Agrid_churn.Event.parse_trace "leave@40:1,rejoin@90:1"
    | _ -> Agrid_churn.Event.parse_trace "shock@30:0:0.25,degrade@60:2:0.5"
  in
  {
    (Job.default (random_scenario_ref rng)) with
    Job.tag = (if Rng.next_int rng 2 = 0 then None else Some (Fmt.str "t%d" (Rng.next_int rng 99)));
    trace_id =
      (if Rng.next_int rng 3 = 0 then
         let job = Rng.next_int rng 1000 in
         let nonce = Rng.next_int rng 1000 in
         Some (Agrid_obs.Trace.id_for (Agrid_obs.Trace.create ~nonce ()) job)
       else None);
    tenant =
      (if Rng.next_int rng 3 = 0 then
         Some (pick rng [| "gold"; "bronze"; "t-0.9_x" |])
       else None);
    alpha = float_of_int (Rng.next_int rng 500) /. 1000.;
    beta = float_of_int (Rng.next_int rng 400) /. 1000.;
    variant = pick rng [| Agrid_core.Slrh.V1; Agrid_core.Slrh.V2; Agrid_core.Slrh.V3 |];
    delta_t = pick rng [| 5; 10; 20 |];
    horizon = pick rng [| 50; 100; 200 |];
    mode = pick rng [| `Rescan; `Soa |];
    events;
    deadline_ms = (if Rng.next_int rng 3 = 0 then Some (float_of_int (Rng.next_int rng 500)) else None);
  }

let test_scenario_ref_roundtrip () =
  let rng = Rng.of_int 0xF004 in
  for i = 1 to 300 do
    let r = random_scenario_ref rng in
    let j = Json.to_string (Serialize.scenario_ref_to_json r) in
    match Serialize.scenario_ref_of_json (Json.parse j) with
    | Ok r' when r' = r -> ()
    | Ok _ -> Alcotest.failf "scenario_ref round trip diverges (case %d): %s" i j
    | Error msg -> Alcotest.failf "scenario_ref round trip rejected (case %d): %s" i msg
  done

let test_job_envelope_roundtrip () =
  let rng = Rng.of_int 0xF005 in
  for i = 1 to 200 do
    let spec = random_job_spec rng in
    let line = Json.to_string (Codec.job_to_json spec) in
    match Codec.parse_request line with
    | Ok (Codec.Submit spec') when spec' = spec -> ()
    | Ok (Codec.Submit _) ->
        Alcotest.failf "job envelope round trip diverges (case %d): %s" i line
    | Ok (Codec.Health | Codec.Stats) ->
        Alcotest.failf "job envelope parsed as a control request (case %d)" i
    | Error msg -> Alcotest.failf "job envelope rejected (case %d): %s" i msg
  done;
  (* a well-formed envelope naming the retired incremental pool mode is
     refused with the unknown-mode error, which lists the valid modes *)
  for i = 1 to 20 do
    let spec = random_job_spec rng in
    let mode = Json.to_string (Json.Str (Agrid_core.Slrh.mode_to_string spec.Job.mode)) in
    let line = Json.to_string (Codec.job_to_json spec) in
    let key = "\"mode\":" ^ mode in
    let k = String.length key in
    let rec find p =
      if p + k > String.length line then
        Alcotest.failf "no %s in envelope (case %d): %s" key i line
      else if String.sub line p k = key then p
      else find (p + 1)
    in
    let p = find 0 in
    let retired =
      String.sub line 0 p ^ "\"mode\":\"incremental\""
      ^ String.sub line (p + k) (String.length line - p - k)
    in
    match Codec.parse_request retired with
    | Error msg ->
        if not (Testlib.contains msg "rescan|soa") then
          Alcotest.failf "retired mode error does not list rescan|soa: %s" msg
    | Ok _ -> Alcotest.failf "retired incremental mode accepted (case %d): %s" i retired
  done

(* a pinned scenario embedded in the envelope realizes to the same
   workload the spec builds directly: compare the artefacts bit-for-bit *)
let test_pinned_realize_roundtrip () =
  let spec = Agrid_workload.Spec.scaled ~seed:77 ~factor:0.03 () in
  let direct =
    Agrid_workload.Workload.build spec ~etc_index:1 ~dag_index:2 ~case:Agrid_platform.Grid.B
  in
  let text = Serialize.to_string spec ~etc_index:1 ~dag_index:2 ~case:Agrid_platform.Grid.B in
  let via_ref = Serialize.realize (Serialize.Pinned text) in
  let module W = Agrid_workload.Workload in
  Alcotest.(check int) "n_tasks" (W.n_tasks direct) (W.n_tasks via_ref);
  Alcotest.(check int) "n_machines" (W.n_machines direct) (W.n_machines via_ref);
  Alcotest.(check int) "tau" (W.tau direct) (W.tau via_ref);
  let etc_d = W.etc direct and etc_r = W.etc via_ref in
  for t = 0 to W.n_tasks direct - 1 do
    for m = 0 to W.n_machines direct - 1 do
      let a = Agrid_etc.Etc.seconds etc_d ~task:t ~machine:m in
      let b = Agrid_etc.Etc.seconds etc_r ~task:t ~machine:m in
      if Int64.bits_of_float a <> Int64.bits_of_float b then
        Alcotest.failf "ETC(%d,%d) diverges: %.17g vs %.17g" t m a b
    done
  done;
  Testlib.check_same_dag "edges" (W.dag direct) (W.dag via_ref)

let test_request_fuzz () =
  let corpus =
    Array.of_list
      (let rng = Rng.of_int 0xF006 in
       List.init 10 (fun _ -> Json.to_string (Codec.job_to_json (random_job_spec rng)))
       @ [
           "{\"schema\":\"agrid-job/1\",\"kind\":\"health\"}";
           "{\"schema\":\"agrid-job/1\",\"kind\":\"job\"}";
           "{\"schema\":\"agrid-job/0\",\"kind\":\"job\"}";
           "{\"kind\":\"job\"}";
         ])
  in
  let rng = Rng.of_int 0xF007 in
  for _ = 1 to 1200 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let s = mutate_n rng (1 + Rng.next_int rng 4) base in
    match Codec.parse_request s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parse_request raised %s on %S" (Printexc.to_string e) s
  done;
  (* and the scenario_ref parser alone, on mutated scenario objects *)
  let scen_corpus =
    Array.of_list
      (let rng = Rng.of_int 0xF008 in
       List.init 8 (fun _ ->
           Json.to_string (Serialize.scenario_ref_to_json (random_scenario_ref rng))))
  in
  for _ = 1 to 800 do
    let base = scen_corpus.(Rng.next_int rng (Array.length scen_corpus)) in
    let s = mutate_n rng (1 + Rng.next_int rng 4) base in
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | j -> (
        match Serialize.scenario_ref_of_json j with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "scenario_ref_of_json raised %s on %S"
              (Printexc.to_string e) s)
  done

(* the router's backend-response parser must be total too: the fleet
   survives a backend emitting any damaged line (it is counted as a
   protocol error, never an exception), so every response shape the
   system can emit — including the fleet-only maybe_executed /
   all_backends_saturated / fleet-health lines — goes through the
   mutation grinder *)
let test_response_fuzz () =
  let result =
    let scenario =
      Serialize.Generated
        { seed = 7; scale = 0.03; etc_index = 0; dag_index = 0; case = Agrid_platform.Grid.A }
    in
    Job.run (Job.default scenario)
  in
  let corpus =
    Array.of_list
      [
        Codec.result_line ~id:3 ~tag:(Some "t3") ~latency_s:0.25 result;
        Codec.rejected_line ~id:4 ~reason:`Malformed ~detail:"not JSON" ();
        Codec.rejected_line ~tag:(Some "t5") ~id:5 ~reason:`Queue_full
          ~detail:"queue full (16 jobs)" ();
        Codec.rejected_line ~tag:(Some "t6") ~id:6 ~reason:`All_backends_saturated
          ~detail:"5 attempts exhausted" ();
        Codec.rejected_line ~tag:None ~id:7 ~reason:`Draining ~detail:"shutting down" ();
        Codec.rejected_line ~tag:(Some "t12") ~id:12 ~reason:`Tenant_quota
          ~detail:"tenant \"bronze\" at its admission cap (2 outstanding)" ();
        Codec.dropped_line ~id:8 ~tag:None;
        Codec.maybe_executed_line ~id:9 ~tag:(Some "t9") ~backend:"b1"
          ~detail:"backend died with the job in flight";
        Codec.health_line ~id:10 ~uptime_s:1.5 ~queue_depth:2 ~workers:4
          ~accepted:7 ~completed:5;
        Codec.fleet_health_line ~id:11 ~uptime_s:2.5 ~queue_depth:0
          ~backends:[ ("b0", "healthy", 3); ("b1", "degraded", 0) ]
          ~accepted:9 ~completed:9;
      ]
  in
  (* unmutated lines must parse *)
  Array.iter
    (fun line ->
      match Codec.parse_response line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "own response line rejected: %s on %S" msg line)
    corpus;
  let rng = Rng.of_int 0xF009 in
  for _ = 1 to 1200 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let s = mutate_n rng (1 + Rng.next_int rng 4) base in
    match Codec.parse_response s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parse_response raised %s on %S" (Printexc.to_string e) s
  done

(* agrid-stats/1: snapshots answered to `agrid top` — the parser must be
   total under mutation, and print/parse must reach a fixed point
   (including NaN quantiles travelling as JSON null) *)
let test_stats_fuzz () =
  let snap ~role ~backends ~quantile =
    {
      Codec.ss_role = role;
      ss_id = 17;
      ss_uptime_s = 12.5;
      ss_queue_depth = 3;
      ss_in_flight = 2;
      ss_workers = 4;
      ss_accepted = 99;
      ss_completed = 95;
      ss_window_s = 60.;
      ss_rate = 1.583;
      ss_p50_s = quantile;
      ss_p95_s = quantile *. 2.;
      ss_p99_s = quantile *. 3.;
      ss_backends = backends;
      ss_trace_events = 123;
      ss_trace_dropped = 0;
      ss_trace_exemplars = 4;
    }
  in
  let corpus =
    Array.of_list
      [
        Codec.stats_line (snap ~role:"serve" ~backends:[] ~quantile:0.0025);
        Codec.stats_line
          (snap ~role:"router"
             ~backends:[ ("b0", "healthy", 2); ("b1", "dead", 0) ]
             ~quantile:0.1);
        Codec.stats_line (snap ~role:"serve" ~backends:[] ~quantile:Float.nan);
      ]
  in
  (* print . parse is a fixed point on every unmutated line *)
  Array.iter
    (fun line ->
      match Codec.parse_stats line with
      | Error msg -> Alcotest.failf "own stats line rejected: %s on %S" msg line
      | Ok s -> Alcotest.(check string) "stats fixed point" line (Codec.stats_line s))
    corpus;
  let rng = Rng.of_int 0xF00A in
  for _ = 1 to 1200 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let s = mutate_n rng (1 + Rng.next_int rng 4) base in
    match Codec.parse_stats s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parse_stats raised %s on %S" (Printexc.to_string e) s
  done

(* agrid-trace/1: every line shape the exporter can emit goes through the
   mutation grinder; parsing must be total and print/parse a fixed
   point so `agrid trace export` and check_obs can trust the artifact *)
let test_trace_fuzz () =
  let module Trace = Agrid_obs.Trace in
  let t = Trace.create ~nonce:0xBEEF ~exemplars:2 () in
  List.iteri
    (fun j kinds ->
      List.iter (fun k -> Trace.record t ~job:j k) kinds)
    [
      [
        Trace.Enqueue;
        Trace.Dispatch { backend = "b0"; attempt = 1 };
        Trace.Retry { attempt = 1; delay_s = 0.25 };
        Trace.Failover { backend = "b0" };
        Trace.Death { backend = "b0" };
        Trace.Respond { outcome = "maybe_executed" };
      ];
      [
        Trace.Enqueue;
        Trace.Exec { queue_wait_s = 0.001 };
        Trace.Respond { outcome = "result" };
      ];
    ];
  let corpus = Array.of_list (Trace.jsonl_lines t) in
  Array.iter
    (fun line ->
      match Trace.parse_jsonl [ line ] with
      | Ok [ l ] -> Alcotest.(check string) "trace fixed point" line (Trace.line_to_string l)
      | Ok _ -> Alcotest.failf "own trace line not one line: %S" line
      | Error msg -> Alcotest.failf "own trace line rejected: %s on %S" msg line)
    corpus;
  let rng = Rng.of_int 0xF00B in
  for _ = 1 to 1500 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let s = mutate_n rng (1 + Rng.next_int rng 4) base in
    match Trace.parse_jsonl [ s ] with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "Trace.parse_jsonl raised %s on %S" (Printexc.to_string e) s
  done

(* agrid-traffic/1: the multi-tenant traffic spec ([Agrid_tenant.Traffic])
   — the parser must be total under mutation and [spec_of_string ∘
   Testlib.traffic_spec_to_string] the identity on every well-formed spec
   (rates and quotas are drawn from short-decimal grids so the %.9g
   spelling is lossless) *)
let test_traffic_spec_fuzz () =
  let module Traffic = Agrid_tenant.Traffic in
  let module Tenant = Agrid_tenant.Tenant in
  let module Arrivals = Agrid_tenant.Arrivals in
  let random_tenant rng i =
    let id = Fmt.str "%s%d" (pick rng [| "gold"; "bronze"; "t_"; "x.y-" |]) i in
    Tenant.make
      ~priority:(pick rng [| Tenant.High; Tenant.Normal; Tenant.Low |])
      ?energy_quota:
        (if Rng.next_int rng 2 = 0 then None
         else Some (pick rng [| 50.0; 200.0; 1024.5 |]))
      ?machine_quota:
        (if Rng.next_int rng 3 = 0 then Some (1 + Rng.next_int rng 8) else None)
      id
  in
  let random_process rng =
    if Rng.next_int rng 2 = 0 then
      Arrivals.Poisson (pick rng [| 0.002; 0.01; 0.125 |])
    else
      Arrivals.Trace
        (List.sort compare
           (List.init (1 + Rng.next_int rng 4) (fun _ -> Rng.next_int rng 500)))
  in
  let random_spec rng =
    (* drawn last to first, the order the arguments of one call are
       evaluated in *)
    let tenants =
      List.init (1 + Rng.next_int rng 3) (fun i ->
          { Traffic.ts_tenant = random_tenant rng i; ts_process = random_process rng })
    in
    let horizon = 100 + Rng.next_int rng 2000 in
    let seed = Rng.next_int rng 100_000 in
    let events =
      match Rng.next_int rng 3 with
      | 0 -> []
      | 1 -> Agrid_churn.Event.parse_trace "leave@40:1,rejoin@90:1"
      | _ -> Agrid_churn.Event.parse_trace "leave@10:2"
    in
    let chunk = 1 + Rng.next_int rng 8 in
    let case = pick rng [| Agrid_platform.Grid.A; Agrid_platform.Grid.B |] in
    let scale = pick rng [| 0.03; 0.0625; 0.125 |] in
    { (Traffic.make_spec ~seed ~horizon tenants) with Traffic.scale; case; chunk; events }
  in
  let rng = Rng.of_int 0xF00C in
  let corpus =
    Array.init 12 (fun _ ->
        let spec = random_spec rng in
        let line = Testlib.traffic_spec_to_string spec in
        (* print/parse fixed point on every well-formed spec *)
        (match Traffic.spec_of_string line with
        | Ok spec' when spec' = spec -> ()
        | Ok _ -> Alcotest.failf "traffic spec round trip diverges: %s" line
        | Error msg -> Alcotest.failf "own traffic spec rejected: %s on %S" msg line);
        line)
  in
  for _ = 1 to 1200 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let s = mutate_n rng (1 + Rng.next_int rng 4) base in
    match Traffic.spec_of_string s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "Traffic.spec_of_string raised %s on %S"
          (Printexc.to_string e) s
  done

(* ---- pinned-scenario decoder: differential against the line parser ----

   Contracts pinned here:
   - on every document of the corpus and its mutations the cursor decoder
     ([Serialize.realize] of a [Pinned] text) and the line parser it replaced
     ([Scenario_reference]) agree: bit-identical workloads, or a
     [Parse_error] on the same line, or the same [Invalid_argument] /
     [Dag.Cycle] from the build. Two documented exceptions: a declared
     count the rest of the text cannot hold is rejected on the line that
     declares it (never later than the reference's own error), and where
     the reference dies allocating for a negative count the decoder
     raises [Parse_error];
   - the decoder raises nothing but [Parse_error], [Invalid_argument] and
     [Dag.Cycle];
   - on documents declaring 10^11 rows or edges the decoder answers with a
     [Parse_error] on the declaring line (the reference is not run: it
     would try to allocate them). *)

module Ref = Scenario_reference

type scenario_outcome =
  | Realized of Digest.t
  | Parse of int * string
  | Raised of exn

let scenario_outcome load text =
  match load text with
  | w -> Realized (Testlib.workload_digest w)
  | exception Serialize.Parse_error { line; message } -> Parse (line, message)
  | exception e -> Raised e

let show_outcome = function
  | Realized d -> "workload " ^ Digest.to_hex d
  | Parse (l, m) -> Fmt.str "Parse_error line %d (%s)" l m
  | Raised e -> Printexc.to_string e

let is_count_rejection msg = Testlib.contains msg " declares "

let check_decoder_agrees text =
  let got = scenario_outcome (fun s -> Serialize.realize (Serialize.Pinned s)) text in
  (match got with
  | Raised (Invalid_argument _ | Agrid_dag.Dag.Cycle _) | Realized _ | Parse _ -> ()
  | Raised e ->
      Alcotest.failf "decoder raised %s on %S" (Printexc.to_string e) text);
  let expected = scenario_outcome Ref.load_string text in
  let agree =
    match (expected, got) with
    | Realized a, Realized b -> Digest.equal a b
    | Parse (l, _), Parse (l', m') -> l' = l || (is_count_rejection m' && l' <= l)
    | Raised (Invalid_argument m), Parse _ ->
        String.length m >= 6 && String.sub m 0 6 = "Array."
    | Raised (Invalid_argument _), Raised (Invalid_argument _) -> true
    | Raised (Agrid_dag.Dag.Cycle a), Raised (Agrid_dag.Dag.Cycle b) -> a = b
    | _ -> false
  in
  if not agree then
    Alcotest.failf "decoder and reference disagree on %S:@.  reference: %s@.  decoder:   %s"
      text (show_outcome expected) (show_outcome got)

let split_lines text = String.split_on_char '\n' text

(* The edge records of a saved document, with the lines around them. *)
let edge_section text =
  let lines = Array.of_list (split_lines text) in
  let at = ref 0 in
  while not (String.length lines.(!at) > 6 && String.sub lines.(!at) 0 6 = "edges ") do
    incr at
  done;
  let n = int_of_string (String.sub lines.(!at) 6 (String.length lines.(!at) - 6)) in
  ( Array.to_list (Array.sub lines 0 !at),
    Array.to_list (Array.sub lines (!at + 1) n),
    Array.to_list (Array.sub lines (!at + 1 + n) (Array.length lines - !at - 1 - n)) )

let with_edges text edges =
  let head, _, tail = edge_section text in
  String.concat "\n" (head @ [ Fmt.str "edges %d" (List.length edges) ] @ edges @ tail)

let scenario_corpus () =
  let rng = Rng.of_int 0xF00D in
  let saved seed factor case etc_index dag_index =
    Serialize.to_string
      (Agrid_workload.Spec.scaled ~seed ~factor ())
      ~etc_index ~dag_index ~case
  in
  let bases =
    [
      saved 3 0.03 Agrid_platform.Grid.A 0 0;
      saved 11 0.0625 Agrid_platform.Grid.B 1 2;
      saved 5 0.03 Agrid_platform.Grid.C 2 1;
    ]
  in
  let variants text =
    let _, edges, _ = edge_section text in
    let shuffled = Array.of_list edges in
    (* Fisher-Yates *)
    for i = Array.length shuffled - 1 downto 1 do
      let j = Rng.next_int rng (i + 1) in
      let tmp = shuffled.(i) in
      shuffled.(i) <- shuffled.(j);
      shuffled.(j) <- tmp
    done;
    (* repeats with new sizes: the last record of a pair must win *)
    let repeated =
      Array.to_list shuffled
      @ List.filteri (fun i _ -> i mod 3 = 0)
          (List.map
             (fun l ->
               match String.split_on_char ' ' l with
               | [ s; d; _ ] -> Fmt.str "%s %s 12345.678" s d
               | _ -> l)
             edges)
    in
    [
      text;
      "# a pinned scenario\n\n" ^ text;
      String.concat "\r\n" (split_lines text);
      String.concat " \t\n" (split_lines text);
      String.sub text 0 (String.length text - 1);
      with_edges text (Array.to_list shuffled);
      with_edges text repeated;
      with_edges text [ "# no edges"; "" ] |> fun t ->
      String.concat "\n"
        (List.map (fun l -> if l = "edges 2" then "edges -3" else l) (split_lines t));
    ]
  in
  List.concat_map variants bases

let scenario_mutation_chars = [| '\t'; '#'; ' '; '\n'; '1'; '5'; '0'; '_'; 'x'; '.'; 'e'; '-' |]

let mutate_scenario rng s =
  if Rng.next_int rng 2 = 0 || String.length s = 0 then mutate rng s
  else
    let pos = Rng.next_int rng (String.length s) in
    let c = scenario_mutation_chars.(Rng.next_int rng (Array.length scenario_mutation_chars)) in
    String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (String.length s - pos)

let test_scenario_decoder_differential () =
  let corpus = Array.of_list (scenario_corpus ()) in
  Array.iter check_decoder_agrees corpus;
  let rng = Rng.of_int 0xF00E in
  for _ = 1 to 2500 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let rec go k s = if k = 0 then s else go (k - 1) (mutate_scenario rng s) in
    check_decoder_agrees (go (1 + Rng.next_int rng 4) base)
  done;
  (* cycles: both raise Dag.Cycle naming the same tasks *)
  let text = corpus.(0) in
  let _, edges, _ = edge_section text in
  List.iter
    (fun cycle -> check_decoder_agrees (with_edges text (edges @ cycle)))
    [ [ "3 0 1"; "0 3 1" ]; [ "0 1 1"; "1 2 1"; "2 0 1" ]; [ "7 5 2.5" ] ]

let test_scenario_decoder_oversized () =
  let text = Serialize.to_string (Agrid_workload.Spec.scaled ~seed:3 ~factor:0.03 ()) ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let replace f = String.concat "\n" (List.map f (split_lines text)) in
  let huge = "100000000000" in
  let rejects ~line doc =
    match Serialize.realize (Serialize.Pinned doc) with
    | _ -> Alcotest.fail "oversized document accepted"
    | exception Serialize.Parse_error { line = l; message } ->
        if l <> line || not (is_count_rejection message) then
          Alcotest.failf "expected a count rejection on line %d, got line %d: %s" line l
            message
  in
  rejects ~line:10
    (replace (fun l ->
         if l = "n_tasks 31" then "n_tasks " ^ huge
         else if l = "etc 31 4" then "etc " ^ huge ^ " 4"
         else l));
  let head, _, _ = edge_section text in
  rejects ~line:(List.length head + 1)
    (replace (fun l -> if String.length l > 6 && String.sub l 0 6 = "edges " then "edges " ^ huge else l));
  (* a huge column count fails on the first row, as it always has *)
  check_decoder_agrees (replace (fun l -> if l = "etc 31 4" then "etc 31 " ^ huge else l))

(* ---- Job.run on hostile floats ----

   Every float a job carries must be a finite quantity. Over the
   scenario mutation corpus, over each float field of a pinned text
   spelled as NaN or an infinity, and over churn events with such
   fractions and factors, [Job.run] must answer either [ok] (or a
   deadline miss) with finite fields, or [errored] — and never raise —
   and its two stages run apart must answer the same.
   A non-finite field of a pinned text is a parse error naming its
   line. *)

let job_answers_soundly what spec =
  let r =
    match Job.run spec with
    | r -> r
    | exception e -> Alcotest.failf "%s: Job.run raised %s" what (Printexc.to_string e)
  in
  (* the service runs the two stages apart; they must answer the same *)
  if not (Testlib.job_equal_modulo_wall r (Job.execute (Job.prepare spec))) then
    Alcotest.failf "%s: Job.execute (Job.prepare s) <> Job.run s" what;
  match r.Job.status with
  | Job.Errored _ -> ()
  | Job.Ok_done | Job.Deadline_missed ->
      let finite = Float.is_finite in
      if
        not
          (finite r.Job.tec && finite r.Job.sunk_energy
          && Array.for_all finite r.Job.energy_remaining)
      then Alcotest.failf "%s: answered ok with a non-finite field" what

let non_finite_spellings = [ "nan"; "-nan"; "NaN"; "inf"; "-inf"; "infinity"; "1e400"; "-1e400" ]

(* [text] with the [field]-th space-separated field of line [line]
   (0-based) replaced by [v]. *)
let with_field text ~line ~field v =
  String.concat "\n"
    (List.mapi
       (fun i l ->
         if i <> line then l
         else
           String.concat " "
             (List.mapi (fun j f -> if j = field then v else f) (String.split_on_char ' ' l)))
       (split_lines text))

let test_job_hostile_floats () =
  let corpus = Array.of_list (scenario_corpus ()) in
  let pinned text = Job.default (Serialize.Pinned text) in
  Array.iteri (fun i text -> job_answers_soundly (Fmt.str "corpus %d" i) (pinned text)) corpus;
  let rng = Rng.of_int 0xF010 in
  for k = 1 to 150 do
    let base = corpus.(Rng.next_int rng (Array.length corpus)) in
    let rec go n s = if n = 0 then s else go (n - 1) (mutate_scenario rng s) in
    job_answers_soundly (Fmt.str "mutant %d" k) (pinned (go (1 + Rng.next_int rng 4) base))
  done;
  (* every float field of the first base text: the five header scalars,
     an ETC entry and an edge size *)
  let text = corpus.(0) in
  let lines = Array.of_list (split_lines text) in
  let line_of prefix =
    let rec find i =
      let l = lines.(i) in
      if String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix
      then i
      else find (i + 1)
    in
    find 0
  in
  let etc = line_of "etc " + 1 and edges = line_of "edges " + 1 in
  let fields =
    [
      ("tau_seconds", line_of "tau_seconds", 1);
      ("battery_scale", line_of "battery_scale", 1);
      ("secondary_fraction", line_of "secondary_fraction", 1);
      ("data_mean_bits", line_of "data_mean_bits", 1);
      ("data_cv", line_of "data_mean_bits", 3);
      ("etc entry", etc, 2);
      ("edge size", edges, 2);
    ]
  in
  List.iter
    (fun (name, line, field) ->
      List.iter
        (fun v ->
          let doc = with_field text ~line ~field v in
          let what = Fmt.str "%s = %s" name v in
          (match Serialize.realize (Serialize.Pinned doc) with
          | _ -> Alcotest.failf "%s: accepted" what
          | exception Serialize.Parse_error { line = l; _ } ->
              Alcotest.(check int) (what ^ ": parse error names the line") (line + 1) l);
          job_answers_soundly what (pinned doc))
        non_finite_spellings)
    fields;
  (* finite values whose cycle count does not fit an int: an ETC entry of
     1e18 s is 1e19 cycles, and 1e300 s or 1e300 bits overflow as well.
     Each is refused, not wrapped to a one-cycle duration. An edge of
     1e18 bits takes 2.5e11 s even on the slowest (4 Mbit/s) link: it
     fits, and is scheduled at its true length, exactly like 1e17 bits. *)
  let run_with name line v =
    let spec = pinned (with_field text ~line ~field:2 v) in
    let what = Fmt.str "%s = %s" name v in
    job_answers_soundly what spec;
    (what, Job.run spec)
  in
  List.iter
    (fun (name, line, v) ->
      match run_with name line v with
      | _, { Job.status = Job.Errored _; _ } -> ()
      | what, _ -> Alcotest.failf "%s: accepted" what)
    [ ("etc entry", etc, "1e18"); ("etc entry", etc, "1e300"); ("edge size", edges, "1e300") ];
  let _, e17 = run_with "edge size" edges "1e17" and what, e18 = run_with "edge size" edges "1e18" in
  if e18.Job.status <> Job.Ok_done then Alcotest.failf "%s: not answered ok" what;
  Alcotest.(check (list int))
    (what ^ ": same schedule as 1e17 bits")
    [ e17.Job.t100; e17.Job.mapped; e17.Job.aet ]
    [ e18.Job.t100; e18.Job.mapped; e18.Job.aet ];
  (* churn events with non-finite fractions and factors: rejected *)
  let generated =
    Serialize.Generated
      { seed = 3; scale = 0.03; etc_index = 0; dag_index = 0; case = Agrid_platform.Grid.A }
  in
  List.iter
    (fun v ->
      List.iter
        (fun ev ->
          let spec =
            { (Job.default generated) with Job.events = [ Agrid_churn.Event.parse ev ] }
          in
          job_answers_soundly ev spec;
          match (Job.run spec).Job.status with
          | Job.Errored _ -> ()
          | _ -> Alcotest.failf "%s: accepted" ev)
        [ Fmt.str "shock@40:1:%s" v; Fmt.str "degrade@40:1:%s" v ])
    [ "nan"; "inf"; "-inf" ]

(* ---- the float kernel against float_of_string ---- *)

module Kernel = Agrid_workload.Float_kernel

let kernel_slot = [| 0. |]

(* [true] when the kernel decided [s]; fails if it decided it wrongly *)
let kernel_agrees s =
  if Kernel.scan s ~pos:0 ~limit:(String.length s) kernel_slot 0 = String.length s then begin
    match float_of_string_opt s with
    | Some f when Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float kernel_slot.(0)) ->
        true
    | Some f ->
        Alcotest.failf "kernel decided %S as %h, float_of_string says %h" s kernel_slot.(0) f
    | None -> Alcotest.failf "kernel decided %S, which float_of_string rejects" s
  end
  else false

let test_kernel_bit_patterns () =
  let finite_bits =
    QCheck2.Gen.(
      oneof
        [
          int64;
          (* subnormals and zeros: biased exponent 0 *)
          map (fun b -> Int64.logand b 0x800F_FFFF_FFFF_FFFFL) int64;
          (* the exponent range the scenarios live in *)
          map
            (fun (b, e) ->
              Int64.logor (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)
                (Int64.shift_left (Int64.of_int (1023 - 40 + e)) 52))
            (pair int64 (int_bound 80));
        ])
  in
  let decided = ref 0 and normal_17g = ref 0 in
  QCheck2.Test.check_exn ~rand:(qcheck_rand 0x4E11)
    (QCheck2.Test.make ~count:20_000 ~name:"kernel = float_of_string on printed doubles"
       finite_bits (fun b ->
         let f = Int64.float_of_bits b in
         if Float.is_finite f then begin
           let s17 = Fmt.str "%.17g" f in
           if kernel_agrees s17 then incr decided;
           if Float.classify_float f = FP_normal then incr normal_17g;
           ignore (kernel_agrees (Fmt.str "%.15g" f));
           ignore (kernel_agrees (Fmt.str "%g" f))
         end;
         true));
  (* the kernel must actually carry the load: nearly every normal double's
     %.17g spelling is decided without the fallback *)
  if float_of_int !decided < 0.99 *. float_of_int !normal_17g then
    Alcotest.failf "kernel decided only %d of %d normal %%.17g tokens" !decided !normal_17g

let test_kernel_digit_strings () =
  let token =
    QCheck2.Gen.(
      let digits n = string_size ~gen:numeral (return n) in
      int_range 1 25 >>= fun n ->
      digits n >>= fun ds ->
      int_range 0 n >>= fun point ->
      int_range (-350) 350 >>= fun e ->
      bool >>= fun neg ->
      oneofl [ ""; "e"; "E" ] >>= fun mark ->
      let mantissa =
        if point = n then ds else String.sub ds 0 point ^ "." ^ String.sub ds point (n - point)
      in
      return
        ((if neg then "-" else "")
        ^ mantissa
        ^ if mark = "" then "" else mark ^ string_of_int e))
  in
  QCheck2.Test.check_exn ~rand:(qcheck_rand 0xD161)
    (QCheck2.Test.make ~count:20_000 ~name:"kernel = float_of_string on digit strings" token
       (fun s ->
         ignore (kernel_agrees s);
         true));
  (* hard cases: a tie just above 2^53, the largest subnormal boundary,
     the classic 1e23 and a value near 2^1023 *)
  List.iter
    (fun s -> ignore (kernel_agrees s))
    [
      "9007199254740993";
      "2.2250738585072011e-308";
      "1e23";
      "8.98846567431158e307";
      "0";
      "-0";
      "0e400";
      "1.7976931348623157e308";
      "1.7976931348623159e308";
      "4.9406564584124654e-324";
      "123456789012345678";
      "1234567890123456789";
      "+1.5";
      "0x1p3";
      "1_000.5";
      "nan";
      "inf";
      "1e";
      ".5";
      "5.";
    ]

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "json parser: mutation corpus" `Quick test_json_fuzz;
        Alcotest.test_case "json parser: nesting bombs" `Quick
          test_json_depth_bomb;
        Alcotest.test_case "json emitter = reference (differential)" `Quick
          test_json_emitter_differential;
        Alcotest.test_case "json parser = reference (differential)" `Quick
          test_json_parser_differential;
        Alcotest.test_case "csv parser: mutation corpus" `Quick test_csv_fuzz;
        Alcotest.test_case "scenario_ref json round trip" `Quick
          test_scenario_ref_roundtrip;
        Alcotest.test_case "agrid-job/1 envelope round trip" `Quick
          test_job_envelope_roundtrip;
        Alcotest.test_case "pinned scenario realizes bit-identically" `Quick
          test_pinned_realize_roundtrip;
        Alcotest.test_case "request parsers: mutation corpus" `Quick
          test_request_fuzz;
        Alcotest.test_case "response parser: mutation corpus" `Quick
          test_response_fuzz;
        Alcotest.test_case "agrid-stats/1: mutation corpus" `Quick
          test_stats_fuzz;
        Alcotest.test_case "agrid-trace/1: mutation corpus" `Quick
          test_trace_fuzz;
        Alcotest.test_case "agrid-traffic/1: mutation corpus" `Quick
          test_traffic_spec_fuzz;
        Alcotest.test_case "pinned decoder = line parser (differential)" `Quick
          test_scenario_decoder_differential;
        Alcotest.test_case "pinned decoder rejects oversized counts" `Quick
          test_scenario_decoder_oversized;
        Alcotest.test_case "Job.run: hostile floats answer ok-finite or errored"
          `Quick test_job_hostile_floats;
        Alcotest.test_case "float kernel: printed doubles (qcheck)" `Quick
          test_kernel_bit_patterns;
        Alcotest.test_case "float kernel: digit strings and hard cases" `Quick
          test_kernel_digit_strings;
      ] );
  ]
