open Agrid_report

(* ---- gantt ---- *)

let test_gantt_renders_lanes () =
  let g =
    Gantt.make ~title:"g"
      [
        Gantt.lane ~name:"m0" [ (0, 50, 'P'); (60, 100, 's') ];
        Gantt.lane ~name:"m1 out" [ (10, 20, 'x') ];
      ]
  in
  let s = Gantt.to_string ~width:20 g in
  Alcotest.(check bool) "title" true (Testlib.contains s "g");
  Alcotest.(check bool) "lane names" true
    (Testlib.contains s "m0" && Testlib.contains s "m1 out");
  Alcotest.(check bool) "primary glyph" true (Testlib.contains s "P");
  Alcotest.(check bool) "secondary glyph" true (Testlib.contains s "s");
  Alcotest.(check bool) "transfer glyph" true (Testlib.contains s "x");
  Alcotest.(check bool) "t_max shown" true (Testlib.contains s "100")

let test_gantt_idle_cells () =
  let g = Gantt.make ~title:"idle" [ Gantt.lane ~name:"m" [ (90, 100, 'P') ] ] in
  let s = Gantt.to_string ~width:10 g in
  Alcotest.(check bool) "leading idle dots" true (Testlib.contains s "........")

let test_gantt_empty_lane () =
  let g = Gantt.make ~title:"e" [ Gantt.lane ~name:"m" [] ] in
  let s = Gantt.to_string ~width:8 g in
  Alcotest.(check bool) "all idle" true (Testlib.contains s "........")

(* ---- csv ---- *)

let test_csv_plain () =
  let s = Csv.to_string ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  Alcotest.(check string) "plain" "a,b\n1,2\n3,4\n" s

let test_csv_quoting () =
  let s = Csv.to_string ~header:[ "x" ] [ [ "has,comma" ]; [ "has\"quote" ]; [ "multi\nline" ] ] in
  Alcotest.(check bool) "comma quoted" true (Testlib.contains s "\"has,comma\"");
  Alcotest.(check bool) "quote doubled" true (Testlib.contains s "\"has\"\"quote\"");
  Alcotest.(check bool) "newline quoted" true (Testlib.contains s "\"multi\nline\"")

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "agrid_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path ~header:[ "h" ] [ [ "v1" ]; [ "v2" ] ];
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file content" "h\nv1\nv2\n" content)

(* ---- trace ---- *)

open Agrid_core

(* The trace is a view of the decision ledger: run with a ledger-carrying
   sink and read the trace off it. *)
let ledger_run ?variant ~weights wl =
  let sink = Agrid_obs.Sink.create ~ledger:true () in
  let o = Slrh.run { (Slrh.default_params ?variant weights) with Slrh.obs = sink } wl in
  (Option.get (Agrid_obs.Sink.ledger sink), o)

let traced_ledger () =
  ledger_run ~weights:(Objective.make_weights ~alpha:0.3 ~beta:0.3)
    (Testlib.small_workload ())

let traced_run () =
  let led, o = traced_ledger () in
  (Trace.of_ledger led, o)

let test_trace_counts_assignments () =
  let tracer, o = traced_run () in
  let s = Trace.summarize tracer in
  Alcotest.(check int) "assigned = mapped"
    (Agrid_sched.Schedule.n_mapped o.Slrh.schedule)
    s.Trace.n_assigned;
  Alcotest.(check bool) "events >= assignments" true
    (Trace.length tracer >= s.Trace.n_assigned)

let test_trace_events_chronological_clocks () =
  let tracer, _ = traced_run () in
  let events = Trace.events tracer in
  let ok = ref true in
  for i = 1 to Array.length events - 1 do
    if events.(i).Trace.clock < events.(i - 1).Trace.clock then ok := false
  done;
  Alcotest.(check bool) "clocks nondecreasing" true !ok

let test_trace_csv_shape () =
  let tracer, _ = traced_run () in
  let rows = Trace.csv_rows tracer in
  Alcotest.(check int) "one row per event" (Trace.length tracer) (List.length rows);
  let width = List.length Trace.csv_header in
  List.iter
    (fun row -> Alcotest.(check int) "row width" width (List.length row))
    rows

let test_trace_csv_roundtrip () =
  (* export -> re-import recovers every event; floats to the writer's
     %.6f precision *)
  let led, _ = traced_ledger () in
  (* make sure all three event kinds are exercised, even if the run
     happened not to produce the rare ones *)
  Agrid_obs.Ledger.record led
    (Agrid_obs.Ledger.Exhausted { clock = 9999; machine = 2; pool_size = 0 });
  Agrid_obs.Ledger.record led
    (Agrid_obs.Ledger.Exhausted { clock = 9999; machine = 3; pool_size = 4 });
  let tracer = Trace.of_ledger led in
  let back = Trace.of_csv_rows (Trace.csv_rows tracer) in
  Alcotest.(check int) "length preserved" (Trace.length tracer) (Trace.length back);
  let orig = Trace.events tracer and got = Trace.events back in
  Array.iteri
    (fun i (e : Trace.event) ->
      let g = got.(i) in
      Alcotest.(check int) "clock" e.Trace.clock g.Trace.clock;
      Alcotest.(check int) "machine" e.Trace.machine g.Trace.machine;
      match (e.Trace.kind, g.Trace.kind) with
      | Trace.Pool_empty, Trace.Pool_empty -> ()
      | Trace.Horizon_miss a, Trace.Horizon_miss b ->
          Alcotest.(check int) "pool size" a.pool_size b.pool_size
      | Trace.Assigned a, Trace.Assigned b ->
          Alcotest.(check int) "task" a.task b.task;
          Alcotest.(check bool) "version" true
            (Agrid_workload.Version.equal a.version b.version);
          Alcotest.(check int) "start" a.start b.start;
          Alcotest.(check int) "stop" a.stop b.stop;
          Alcotest.(check int) "pool size" a.pool_size b.pool_size;
          Testlib.close ~eps:1e-6 "score" a.score b.score;
          Testlib.close ~eps:1e-6 "energy" a.energy_remaining b.energy_remaining
      | _ -> Alcotest.failf "event %d: kind changed across round-trip" i)
    orig;
  (* both recorded kinds survived *)
  let s = Trace.summarize back in
  Alcotest.(check bool) "pool_empty kept" true (s.Trace.n_pool_empty >= 1);
  Alcotest.(check bool) "horizon_miss kept" true (s.Trace.n_horizon_miss >= 1)

let test_trace_of_csv_rejects_malformed () =
  Alcotest.(check bool) "short row raises" true
    (try
       ignore (Trace.of_csv_rows [ [ "1"; "2"; "assigned" ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown event raises" true
    (try
       ignore
         (Trace.of_csv_rows
            [ [ "1"; "2"; "exploded"; ""; ""; ""; ""; ""; "0"; "" ] ]);
       false
     with Invalid_argument _ -> true)

let test_trace_no_tracer_is_silent () =
  (* the default params carry the inert sink: no ledger, so nothing is
     recorded and there is no trace to read *)
  let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  Alcotest.(check bool) "default sink has no ledger" true
    (Option.is_none (Agrid_obs.Sink.ledger (Slrh.default_params weights).Slrh.obs))

let test_trace_summary_empty () =
  let t = Trace.of_ledger (Agrid_obs.Ledger.create ()) in
  let s = Trace.summarize t in
  Alcotest.(check int) "no events" 0 s.Trace.n_assigned;
  Alcotest.(check (option int)) "no first" None s.Trace.first_assignment_clock

(* ---- trace bit-identity oracle ----

   MD5 of the exported CSV (header included) for SLRH-1/2/3 on one fixed
   workload: seed 7 scaled by 0.125, the CLI's default weights, soa mode.
   The digests pin every traced fact (stale pool scores, remaining
   energy, pool sizes, empty-pool and horizon-miss rows). They were
   recorded from the separate recorder the trace had before it became a
   view of the ledger, and the view reproduces them unchanged. *)
let digest_workload () =
  Agrid_workload.Workload.build
    (Agrid_workload.Spec.scaled ~seed:7 ~factor:0.125 ())
    ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A

let trace_digest variant =
  let led, _ =
    ledger_run ~variant ~weights:(Objective.make_weights ~alpha:0.4 ~beta:0.3)
      (digest_workload ())
  in
  Digest.to_hex
    (Digest.string
       (Csv.to_string ~header:Trace.csv_header (Trace.csv_rows (Trace.of_ledger led))))

let test_trace_digest_oracle () =
  Alcotest.(check string) "SLRH-1 trace digest" "5ecf20b714f547a138dfa9033e48b425" (trace_digest Slrh.V1);
  Alcotest.(check string) "SLRH-2 trace digest" "a3e84f5d37ec679c49007ed3c07f7efd" (trace_digest Slrh.V2);
  Alcotest.(check string) "SLRH-3 trace digest" "c25ea8159878e888b0c8b4c3b0197663" (trace_digest Slrh.V3)

(* ---- ledger bit-identity oracle ----

   MD5 of [Ledger.to_jsonl] on the trace oracle's workload: SLRH-1/2/3 in
   the default mode, one churn-engine run over a fixed leave/rejoin trace
   and one adaptive-lagrange run (its Multiplier entries serialise the
   whole dual trajectory). Every recorded fact — rejections, ranks,
   runner-up margins, idle causes — is pinned to a committed value. *)
let ledger_digest ?(adapt = false) ?events variant =
  let wl = digest_workload () in
  let sink = Agrid_obs.Sink.create ~ledger:true () in
  let p =
    {
      (Slrh.default_params ~variant (Objective.make_weights ~alpha:0.4 ~beta:0.3)) with
      Slrh.obs = sink;
    }
  in
  let p =
    if adapt then
      {
        p with
        Slrh.adapt = Some (Adapt.create Adapt.default_spec p.Slrh.weights);
        feas_mode = Adapt.feas_mode Adapt.default_spec;
      }
    else p
  in
  (match events with
  | None -> ignore (Slrh.run p wl)
  | Some ev -> ignore (Dynamic.run_churn p wl (Agrid_churn.Event.parse_trace ev)));
  Digest.to_hex
    (Digest.string (Agrid_obs.Ledger.to_jsonl (Option.get (Agrid_obs.Sink.ledger sink))))

let test_ledger_digest_oracle () =
  Alcotest.(check string) "SLRH-1 ledger digest" "a10227c15a9d7f2d358bb0ac5494797c" (ledger_digest Slrh.V1);
  Alcotest.(check string) "SLRH-2 ledger digest" "54ca191819cb43bc735ac05597c5cc19" (ledger_digest Slrh.V2);
  Alcotest.(check string) "SLRH-3 ledger digest" "8af82e77df777fc3f960c1ad4212e5cc" (ledger_digest Slrh.V3);
  Alcotest.(check string) "SLRH-2 churn ledger digest" "dc475b518a7cc0d49ec307f14982ec65"
    (ledger_digest ~events:"leave@400:1,rejoin@900:1" Slrh.V2);
  Alcotest.(check string) "SLRH-1 adaptive ledger digest" "b8e26fa15cfa3c4f2c8f7cd1d966ee54"
    (ledger_digest ~adapt:true Slrh.V1)

let suites =
  [
    ( "report",
      [
        Alcotest.test_case "gantt renders lanes" `Quick test_gantt_renders_lanes;
        Alcotest.test_case "gantt idle cells" `Quick test_gantt_idle_cells;
        Alcotest.test_case "gantt empty lane" `Quick test_gantt_empty_lane;
        Alcotest.test_case "csv plain" `Quick test_csv_plain;
        Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
        Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
        Alcotest.test_case "trace counts assignments" `Quick test_trace_counts_assignments;
        Alcotest.test_case "trace chronological" `Quick test_trace_events_chronological_clocks;
        Alcotest.test_case "trace csv shape" `Quick test_trace_csv_shape;
        Alcotest.test_case "trace csv roundtrip" `Quick test_trace_csv_roundtrip;
        Alcotest.test_case "trace csv malformed" `Quick test_trace_of_csv_rejects_malformed;
        Alcotest.test_case "no tracer silent" `Quick test_trace_no_tracer_is_silent;
        Alcotest.test_case "trace empty summary" `Quick test_trace_summary_empty;
        Alcotest.test_case "trace digest oracle" `Quick test_trace_digest_oracle;
        Alcotest.test_case "ledger digest oracle" `Quick test_ledger_digest_oracle;
      ] );
  ]
