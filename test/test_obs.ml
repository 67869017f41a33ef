(* Tests for the telemetry subsystem (lib/obs): histogram edge cases,
   registry merge algebra, ring wraparound, span exception safety, sink
   stride gating, JSONL export shape — and the load-bearing guarantee that
   instrumentation is inert: scheduler output is bit-identical with an
   active sink and with the no-op sink. *)

open Agrid_obs

(* ---- hist ---- *)

let test_hist_buckets () =
  let h = Hist.make ~bounds:[| 1.; 2.; 4. |] in
  List.iter (Hist.observe h) [ 0.5; 1.5; 3.0; 3.9 ];
  Alcotest.(check (array int)) "bucket counts" [| 1; 1; 2; 0 |] (Hist.counts h);
  Alcotest.(check int) "count" 4 (Hist.count h);
  Testlib.close "sum" 8.9 (Hist.sum h)

let test_hist_underflow_overflow () =
  let h = Hist.make ~bounds:[| 1.; 2. |] in
  Hist.observe h (-5.);
  Hist.observe h 2.;
  Hist.observe h 1e9;
  (* below the first bound -> bucket 0; at/above the last bound -> the
     overflow bucket *)
  Alcotest.(check (array int)) "under/overflow" [| 1; 0; 2 |] (Hist.counts h);
  Alcotest.(check int) "count includes extremes" 3 (Hist.count h)

let test_hist_nan_quarantined () =
  let h = Hist.make ~bounds:[| 1.; 2. |] in
  Hist.observe h Float.nan;
  Hist.observe h 1.5;
  Alcotest.(check int) "nan not counted" 1 (Hist.count h);
  Alcotest.(check int) "nan quarantined" 1 (Hist.nan_count h);
  Testlib.close "sum untouched by nan" 1.5 (Hist.sum h)

let test_hist_quantile_empty_and_order () =
  let h = Hist.make ~bounds:[| 1.; 2.; 4.; 8. |] in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hist.quantile h 0.5));
  for i = 1 to 100 do
    Hist.observe h (float_of_int i /. 100. *. 7.)
  done;
  let p10 = Hist.quantile h 0.1 and p50 = Hist.quantile h 0.5 and p95 = Hist.quantile h 0.95 in
  Alcotest.(check bool) "quantiles ordered" true (p10 <= p50 && p50 <= p95);
  Alcotest.(check bool) "p95 within range" true (p95 <= 8.)

let test_hist_negative_bound_quantile () =
  (* all mass in the underflow bucket of a negative-bound histogram: the
     quantile must interpolate inside a synthesized bucket below the
     first bound, not collapse onto the old zero-width [min 0 b0] edge *)
  let h = Hist.make ~bounds:[| -2.; -1.; 1. |] in
  List.iter (Hist.observe h) [ -5.; -4.; -3. ];
  let p25 = Hist.quantile h 0.25 and p75 = Hist.quantile h 0.75 in
  Alcotest.(check bool) "p25 finite" true (Float.is_finite p25);
  Alcotest.(check bool) "p75 at most the first bound" true (p75 <= -2.);
  Alcotest.(check bool) "p25 above the synthesized edge" true (p25 >= -3.);
  Alcotest.(check bool) "interpolation is not degenerate" true (p25 < p75)

let test_hist_quantile_negative_bounds_property () =
  (* random bounds (often spanning zero) and observations: quantiles are
     never NaN on a populated histogram and are monotone in q *)
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 5) (float_range (-100.) 100.))
        (list_size (int_range 1 60) (float_range (-200.) 200.)))
  in
  let prop (raw_bounds, obs) =
    match Array.of_list (List.sort_uniq compare raw_bounds) with
    | bounds when Array.length bounds >= 2 ->
        let h = Hist.make ~bounds in
        List.iter (Hist.observe h) obs;
        let vs = List.map (Hist.quantile h) [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ] in
        List.iter
          (fun v -> if Float.is_nan v then failwith "NaN quantile on populated hist")
          vs;
        let rec mono = function
          | a :: b :: tl -> a <= b && mono (b :: tl)
          | _ -> true
        in
        mono vs
    | _ -> true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:300 ~name:"quantile total and monotone over signed bounds"
       gen prop)

let test_hist_max_value () =
  let h = Hist.make ~bounds:[| 1.; 2. |] in
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (Hist.max_value h));
  List.iter (Hist.observe h) [ 0.5; 7.5; 3.0 ];
  Testlib.close "max tracked" 7.5 (Hist.max_value h);
  Hist.observe h Float.nan;
  Testlib.close "nan does not disturb max" 7.5 (Hist.max_value h);
  let other = Hist.make ~bounds:[| 1.; 2. |] in
  Hist.observe other 9.25;
  Hist.merge_into ~into:h other;
  Testlib.close "merge takes the larger max" 9.25 (Hist.max_value h)

let test_hist_invalid_bounds () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Hist.make: bounds must be strictly increasing")
    (fun () -> ignore (Hist.make ~bounds:[| 2.; 1. |]))

let test_hist_merge_bounds_mismatch () =
  let a = Hist.make ~bounds:[| 1.; 2. |] in
  let b = Hist.make ~bounds:[| 1.; 3. |] in
  Alcotest.(check bool) "merge with other bounds raises" true
    (try
       Hist.merge_into ~into:a b;
       false
     with Invalid_argument _ -> true)

(* ---- registry merge algebra ---- *)

let metric_repr (name, m) =
  match m with
  | Registry.Counter c -> (name, "c", float_of_int c, [])
  | Registry.Gauge g -> (name, "g", g, [])
  | Registry.Histogram h ->
      (name, "h", Hist.sum h, Array.to_list (Hist.counts h))

let registry_repr r = List.map metric_repr (Registry.to_alist r)
let registry_repr_of_sink s = List.map metric_repr (Sink.metrics s)

let sample_registry ~counter ~gauge ~obs_list () =
  let r = Registry.create () in
  Registry.add r "n" counter;
  Registry.set_gauge r "g" gauge;
  List.iter (Registry.observe r "h" ~bounds:[| 1.; 10. |]) obs_list;
  r

let test_registry_merge_commutative () =
  let spec1 = (3, 5., [ 0.5; 2. ]) and spec2 = (4, 9., [ 20. ]) in
  let build (c, g, o) = sample_registry ~counter:c ~gauge:g ~obs_list:o () in
  let ab = build spec1 in
  Registry.merge_into ~into:ab (build spec2);
  let ba = build spec2 in
  Registry.merge_into ~into:ba (build spec1);
  Alcotest.(check bool) "a+b = b+a" true (registry_repr ab = registry_repr ba);
  (match Registry.find ab "n" with
  | Some (Registry.Counter c) -> Alcotest.(check int) "counters add" 7 c
  | _ -> Alcotest.fail "counter missing");
  match Registry.find ab "g" with
  | Some (Registry.Gauge g) -> Testlib.close "gauges max-merge" 9. g
  | _ -> Alcotest.fail "gauge missing"

let test_registry_merge_associative () =
  let specs = [ (1, 2., [ 0.1 ]); (10, 1., [ 5.; 50. ]); (100, 7., []) ] in
  let build (c, g, o) = sample_registry ~counter:c ~gauge:g ~obs_list:o () in
  let left =
    match List.map build specs with
    | [ a; b; c ] ->
        Registry.merge_into ~into:a b;
        Registry.merge_into ~into:a c;
        a
    | _ -> assert false
  in
  let right =
    match List.map build specs with
    | [ a; b; c ] ->
        Registry.merge_into ~into:b c;
        Registry.merge_into ~into:a b;
        a
    | _ -> assert false
  in
  Alcotest.(check bool) "(a+b)+c = a+(b+c)" true (registry_repr left = registry_repr right)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  Registry.incr r "x";
  Alcotest.(check bool) "gauge write to counter raises" true
    (try
       Registry.set_gauge r "x" 1.;
       false
     with Invalid_argument _ -> true);
  let other = Registry.create () in
  Registry.set_gauge other "x" 1.;
  Alcotest.(check bool) "merge kind clash raises" true
    (try
       Registry.merge_into ~into:r other;
       false
     with Invalid_argument _ -> true)

(* ---- snapshot ring ---- *)

let test_ring_wraparound () =
  let r = Snapshot.Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Snapshot.Ring.push r i
  done;
  Alcotest.(check int) "length capped" 4 (Snapshot.Ring.length r);
  Alcotest.(check int) "pushed counts all" 10 (Snapshot.Ring.pushed r);
  Alcotest.(check int) "dropped" 6 (Snapshot.Ring.dropped r);
  Alcotest.(check (list int)) "oldest first, newest kept" [ 6; 7; 8; 9 ]
    (Snapshot.Ring.to_list r)

let test_ring_partial_fill () =
  let r = Snapshot.Ring.create ~capacity:8 in
  Snapshot.Ring.push r "a";
  Snapshot.Ring.push r "b";
  Alcotest.(check (list string)) "insertion order" [ "a"; "b" ] (Snapshot.Ring.to_list r);
  Alcotest.(check int) "nothing dropped" 0 (Snapshot.Ring.dropped r)

(* Stride-gated sampling into a ring whose capacity does not divide the
   sample count: the ring must keep the newest samples and report the
   exact drop count even when the wrap point lands mid-stride. *)
let test_ring_wraparound_nondivisible_stride () =
  let s = Sink.create ~stride:3 ~capacity:4 () in
  for i = 0 to 19 do
    ignore
      (Sink.tick_snapshot s ~make:(fun () ->
           {
             Snapshot.clock = i;
             mapped = 0;
             t100 = 0;
             pools_built = 0;
             pool_candidates = 0;
             energy = [||];
           }))
  done;
  (* sampled ticks: 0 3 6 9 12 15 18 — seven samples into four slots *)
  Alcotest.(check int) "ring holds capacity" 4 (Sink.n_snapshots s);
  Alcotest.(check int) "three oldest dropped" 3 (Sink.snapshots_dropped s);
  Alcotest.(check (list int)) "newest samples kept, oldest first" [ 9; 12; 15; 18 ]
    (List.map (fun (x : Snapshot.t) -> x.Snapshot.clock) (Sink.snapshots s))

(* ---- span ---- *)

let test_span_records_on_raise () =
  let t = Span.create () in
  (try Span.time t "boom" (fun () -> failwith "boom") with Failure _ -> ());
  ignore (Span.time t "boom" (fun () -> 42));
  match Span.stats t with
  | [ s ] ->
      Alcotest.(check string) "name" "boom" s.Span.name;
      Alcotest.(check int) "raise still recorded" 2 s.Span.count;
      Alcotest.(check bool) "durations nonnegative" true (s.Span.total_s >= 0.)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* ---- sink ---- *)

let test_sink_noop_inert () =
  let s = Sink.noop in
  Alcotest.(check bool) "not enabled" false (Sink.enabled s);
  Sink.incr s "x";
  Sink.observe s "h" ~bounds:[| 1. |] 0.5;
  Alcotest.(check int) "span passes value through" 9 (Sink.span s "sp" (fun () -> 9));
  Alcotest.(check bool) "tick never samples" false
    (Sink.tick_snapshot s ~make:(fun () -> Alcotest.fail "thunk must not run"));
  Alcotest.(check int) "no metrics" 0 (Sink.n_metrics s);
  Alcotest.(check int) "no spans" 0 (Sink.n_spans s)

let snap clock =
  {
    Snapshot.clock;
    mapped = 0;
    t100 = 0;
    pools_built = 0;
    pool_candidates = 0;
    energy = [||];
  }

let test_sink_stride () =
  let s = Sink.create ~stride:3 ~capacity:16 () in
  let sampled = ref 0 in
  for i = 0 to 7 do
    if Sink.tick_snapshot s ~make:(fun () -> snap i) then incr sampled
  done;
  (* ticks 0, 3, 6 *)
  Alcotest.(check int) "sampled every third tick" 3 !sampled;
  Alcotest.(check (list int)) "sampled clocks" [ 0; 3; 6 ]
    (List.map (fun (x : Snapshot.t) -> x.Snapshot.clock) (Sink.snapshots s))

let test_sink_merge () =
  let a = Sink.create () and b = Sink.create () in
  Sink.add a "n" 2;
  Sink.add b "n" 5;
  Sink.record_span b "sp" 0.25;
  Sink.push_snapshot b (snap 7);
  Sink.merge_into ~into:a b;
  (match List.assoc "n" (Sink.metrics a) with
  | Registry.Counter c -> Alcotest.(check int) "counters add" 7 c
  | _ -> Alcotest.fail "expected counter");
  Alcotest.(check int) "spans merged" 1 (Sink.n_spans a);
  Alcotest.(check int) "snapshots merged" 1 (Sink.n_snapshots a);
  Alcotest.(check bool) "active into noop raises" true
    (try
       Sink.merge_into ~into:Sink.noop b;
       false
     with Invalid_argument _ -> true)

(* ---- instrumentation is inert: bit-identical scheduler output ---- *)

open Agrid_core

let schedule_fingerprint sched =
  ( Array.to_list (Agrid_sched.Schedule.placements sched),
    Array.to_list (Agrid_sched.Schedule.transfers sched),
    Agrid_sched.Schedule.tec sched,
    Agrid_sched.Schedule.aet sched,
    Agrid_sched.Schedule.n_primary sched )

let params_with obs =
  let weights = Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  { (Slrh.default_params weights) with Slrh.obs }

let test_slrh_bit_identical_with_obs () =
  let workload = Testlib.small_workload () in
  let plain = Slrh.run (params_with Sink.noop) workload in
  let sink = Sink.create () in
  let obs = Slrh.run (params_with sink) workload in
  Alcotest.(check bool) "identical schedules" true
    (schedule_fingerprint plain.Slrh.schedule = schedule_fingerprint obs.Slrh.schedule);
  Alcotest.(check bool) "identical stats" true (plain.Slrh.stats = obs.Slrh.stats);
  Alcotest.(check int) "identical final clock" plain.Slrh.final_clock obs.Slrh.final_clock;
  (* and the sink actually saw the run *)
  Alcotest.(check bool) "spans recorded" true (Sink.n_spans sink >= 3);
  Alcotest.(check bool) "metrics recorded" true (Sink.n_metrics sink >= 5);
  Alcotest.(check bool) "snapshots recorded" true (Sink.n_snapshots sink >= 1)

let test_churn_bit_identical_with_obs () =
  let workload = Testlib.small_workload () in
  let tau = Agrid_workload.Workload.tau workload in
  let events =
    [
      { Agrid_churn.Event.at = tau / 8; kind = Agrid_churn.Event.Leave 1 };
      { Agrid_churn.Event.at = tau / 2; kind = Agrid_churn.Event.Rejoin 1 };
    ]
  in
  let plain = Dynamic.run_churn (params_with Sink.noop) workload events in
  let sink = Sink.create () in
  let obs = Dynamic.run_churn (params_with sink) workload events in
  Alcotest.(check bool) "identical schedules" true
    (schedule_fingerprint plain.Agrid_churn.Engine.schedule
    = schedule_fingerprint obs.Agrid_churn.Engine.schedule);
  Testlib.close "identical sunk energy" plain.Agrid_churn.Engine.sunk_energy
    obs.Agrid_churn.Engine.sunk_energy;
  Alcotest.(check int) "identical discards" plain.Agrid_churn.Engine.n_discarded
    obs.Agrid_churn.Engine.n_discarded;
  Alcotest.(check bool) "churn spans present" true
    (List.exists
       (fun (s : Span.stats) -> s.Span.name = "churn/phase")
       (Sink.span_stats sink))

(* ---- export ---- *)

let test_jsonl_shape () =
  let workload = Testlib.small_workload () in
  let sink = Sink.create ~stride:4 () in
  ignore (Slrh.run (params_with sink) workload);
  let lines =
    String.split_on_char '\n' (Export.to_jsonl sink)
    |> List.filter (fun l -> l <> "")
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  (match lines with
  | meta :: _ ->
      Alcotest.(check bool) "meta first" true (Testlib.contains meta "\"type\":\"meta\"");
      Alcotest.(check bool) "schema tagged" true (Testlib.contains meta Export.schema)
  | [] -> Alcotest.fail "no lines");
  let count tag =
    List.length
      (List.filter (fun l -> Testlib.contains l (Fmt.str "\"type\":%S" tag)) lines)
  in
  Alcotest.(check bool) "some spans" true (count "span" >= 3);
  Alcotest.(check bool) "some metrics" true
    (count "counter" + count "gauge" + count "histogram" >= 5);
  Alcotest.(check bool) "some snapshots" true (count "snapshot" >= 1)

let test_summary_json_counters () =
  let sink = Sink.create () in
  Sink.add sink "a/b" 3;
  Sink.record_span sink "sp" 0.5;
  let s = Export.summary_json ~total_seconds:1.25 sink in
  Alcotest.(check bool) "total" true (Testlib.contains s "\"total_seconds\": 1.25");
  Alcotest.(check bool) "counter" true (Testlib.contains s "\"a/b\": 3");
  Alcotest.(check bool) "span name" true (Testlib.contains s "\"name\":\"sp\"")

let test_nonfinite_floats_export_null () =
  let sink = Sink.create () in
  Sink.set_gauge sink "g" Float.infinity;
  let s = Export.to_jsonl sink in
  Alcotest.(check bool) "infinity becomes null" true
    (Testlib.contains s "\"value\":null")

(* nan/inf emit as null and read back as nan through the in-tree parser —
   the telemetry JSONL must survive a full export -> parse cycle without
   an external JSON package. *)
let test_json_nan_inf_round_trip () =
  List.iter
    (fun x ->
      let line = Json.to_string (Json.Obj [ ("value", Json.Flt x) ]) in
      Alcotest.(check string) "non-finite emits null" "{\"value\":null}" line;
      match Option.bind (Json.member "value" (Json.parse line)) Json.to_float with
      | Some v -> Alcotest.(check bool) "null parses back to nan" true (Float.is_nan v)
      | None -> Alcotest.fail "value field lost in round trip")
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* finite floats survive to 9 significant digits, ints exactly *)
  let line = Json.to_string (Json.Obj [ ("f", Json.Flt 0.123456789); ("i", Json.Int 42) ]) in
  let doc = Json.parse line in
  Alcotest.(check (option int)) "int exact" (Some 42) (Json.get_int "i" doc);
  (match Json.get_float "f" doc with
  | Some f -> Alcotest.(check bool) "float to 1e-9" true (Float.abs (f -. 0.123456789) < 1e-12)
  | None -> Alcotest.fail "float field lost");
  (* and a whole exported sink parses line by line *)
  let sink = Sink.create () in
  Sink.set_gauge sink "g" Float.nan;
  Sink.add sink "c" 7;
  Sink.record_span sink "sp" 0.25;
  String.split_on_char '\n' (Export.to_jsonl sink)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         match Json.parse_opt l with
         | Some (Json.Obj _) -> ()
         | Some _ | None -> Alcotest.failf "export line is not a JSON object: %s" l)

(* ---- rolling windows ---- *)

let test_window_rolling () =
  let w = Window.create ~slots:4 ~slot_s:1. () in
  for i = 0 to 7 do
    Window.incr w ~now:(0.5 +. float_of_int i) "completed"
  done;
  (* 8 increments, but only the last 4 slots are live at now = 7.5 *)
  Alcotest.(check int) "total is rolling, not lifetime" 4
    (Window.total w ~now:7.5 "completed");
  Alcotest.(check int) "fully aged out" 0 (Window.total w ~now:50. "completed")

let test_window_quantile_ages_out () =
  let w = Window.create ~slots:3 ~slot_s:2. () in
  let bounds = [| 0.1; 1.0; 10.0 |] in
  List.iter
    (fun v -> Window.observe w ~now:1.0 "latency_s" ~bounds v)
    [ 0.5; 0.5; 0.5; 5.0 ];
  let p50 = Window.quantile w ~now:1.5 "latency_s" 0.5 in
  Alcotest.(check bool) "live p50 in covering bucket" true (p50 > 0.1 && p50 <= 1.0);
  Alcotest.(check int) "live count" 4 (Window.count w ~now:1.5 "latency_s");
  Alcotest.(check bool) "aged-out quantile is NaN" true
    (Float.is_nan (Window.quantile w ~now:100. "latency_s" 0.5));
  Alcotest.(check int) "aged-out count" 0 (Window.count w ~now:100. "latency_s")

let test_window_rate_early_life () =
  let w = Window.create ~slots:12 ~slot_s:5. () in
  Window.add w ~now:0.2 "jobs" 3;
  (* only one 5 s slot is live: the divisor is the covered 5 s, not the
     nominal 60 s window *)
  Testlib.close "early rate uses covered time" (3. /. 5.) (Window.rate w ~now:0.2 "jobs");
  Alcotest.(check bool) "covered below nominal" true
    (Window.covered_s w ~now:0.2 < Window.window_s w)

let test_window_merge () =
  let a = Window.create ~slots:4 ~slot_s:1. () in
  let b = Window.create ~slots:4 ~slot_s:1. () in
  Window.incr a ~now:1.5 "c";
  Window.incr b ~now:1.5 "c";
  Window.incr b ~now:2.5 "c";
  Window.merge_into ~into:a b;
  Alcotest.(check int) "slot-aligned merge" 3 (Window.total a ~now:2.9 "c");
  let bad = Window.create ~slots:5 ~slot_s:1. () in
  Alcotest.(check bool) "geometry mismatch raises" true
    (try
       Window.merge_into ~into:a bad;
       false
     with Invalid_argument _ -> true)

(* ---- trace collector ---- *)

(* [open Agrid_core] above pulls in the scheduler's decision tracer,
   also called Trace; rebind the request tracer explicitly. *)
module Trace = Agrid_obs.Trace

let test_trace_ids () =
  Alcotest.(check string) "id is a pure function"
    (Trace.id_of ~nonce:42 ~job:7)
    (Trace.id_of ~nonce:42 ~job:7);
  Alcotest.(check bool) "nonce separates runs" true
    (Trace.id_of ~nonce:1 ~job:7 <> Trace.id_of ~nonce:2 ~job:7);
  Alcotest.(check bool) "zero nonce, zero job is not all-zeros" true
    (Trace.id_of ~nonce:0 ~job:0 <> "0000000000000000");
  let t = Trace.create ~nonce:42 () in
  Alcotest.(check string) "id_for matches id_of" (Trace.id_of ~nonce:42 ~job:7)
    (Trace.id_for t 7);
  (* a backend adopts the id stamped by its router *)
  Trace.record ~id:"deadbeefdeadbeef" t ~job:7 Trace.Enqueue;
  (match Trace.events t with
  | [ e ] -> Alcotest.(check string) "stamped id wins" "deadbeefdeadbeef" e.Trace.ev_trace
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_trace_ring_bounded () =
  let t = Trace.create ~nonce:1 ~capacity:8 () in
  for j = 0 to 19 do
    Trace.record t ~job:j Trace.Enqueue
  done;
  Alcotest.(check int) "ring holds capacity" 8 (Trace.length t);
  Alcotest.(check int) "pushed counts all" 20 (Trace.pushed t);
  Alcotest.(check int) "dropped = pushed - kept" 12 (Trace.dropped t);
  (match Trace.events t with
  | { Trace.ev_job; _ } :: _ -> Alcotest.(check int) "oldest survivor" 12 ev_job
  | [] -> Alcotest.fail "ring empty")

let test_trace_exemplars_and_pending () =
  let t = Trace.create ~nonce:3 ~exemplars:2 ~pending_cap:2 () in
  for j = 0 to 4 do
    Trace.record t ~job:j Trace.Enqueue;
    Trace.record t ~job:j (Trace.Dispatch { backend = "b"; attempt = 1 });
    Trace.record t ~job:j (Trace.Respond { outcome = "result" })
  done;
  let xs = Trace.exemplars t in
  Alcotest.(check int) "exemplar buffer bounded" 2 (List.length xs);
  List.iter
    (fun (x : Trace.exemplar) ->
      Alcotest.(check bool) "duration nonnegative" true (x.Trace.x_duration_s >= 0.);
      (match x.Trace.x_events with
      | { Trace.ev_kind = Trace.Enqueue; _ } :: _ -> ()
      | _ -> Alcotest.fail "exemplar does not start with enqueue");
      match List.rev x.Trace.x_events with
      | { Trace.ev_kind = Trace.Respond _; _ } :: _ -> ()
      | _ -> Alcotest.fail "exemplar does not end with respond")
    xs;
  (* open timelines are bounded too: 5 enqueues, cap 2 *)
  let u = Trace.create ~nonce:3 ~pending_cap:2 () in
  for j = 0 to 4 do
    Trace.record u ~job:j Trace.Enqueue
  done;
  Alcotest.(check bool) "pending table bounded" true (Trace.n_pending u <= 2)

(* An open timeline holds 256 events: the Enqueue and the first 255
   Dispatch/Retry events. Later ones are dropped without raising, and the
   Respond still closes the timeline into an exemplar. *)
let test_trace_per_job_cap () =
  let t = Trace.create ~nonce:4 () in
  Trace.record t ~job:0 Trace.Enqueue;
  for attempt = 1 to 300 do
    Trace.record t ~job:0
      (if attempt mod 2 = 0 then Trace.Retry { attempt; delay_s = 0.001 }
       else Trace.Dispatch { backend = "b"; attempt })
  done;
  Trace.record t ~job:0 (Trace.Respond { outcome = "result" });
  Alcotest.(check int) "the ring saw every event" 302 (Trace.pushed t);
  match Trace.exemplars t with
  | [ x ] -> (
      let evs = x.Trace.x_events in
      Alcotest.(check int) "256 timeline events, then the respond" 257 (List.length evs);
      (match List.nth evs 255 with
      | { Trace.ev_kind = Trace.Dispatch { attempt = 255; _ }; _ } -> ()
      | _ -> Alcotest.fail "the last kept event is not attempt 255");
      match List.rev evs with
      | { Trace.ev_kind = Trace.Respond _; _ } :: _ -> ()
      | _ -> Alcotest.fail "exemplar does not end with respond")
  | xs -> Alcotest.failf "expected one exemplar, got %d" (List.length xs)

let test_trace_jsonl_round_trip () =
  let t = Trace.create ~nonce:9 () in
  Trace.record t ~job:0 Trace.Enqueue;
  Trace.record t ~job:0 (Trace.Dispatch { backend = "b0"; attempt = 1 });
  Trace.record t ~job:0 (Trace.Retry { attempt = 1; delay_s = 0.25 });
  Trace.record t ~job:0 (Trace.Failover { backend = "b0" });
  Trace.record t ~job:0 (Trace.Death { backend = "b0" });
  Trace.record t ~job:0 (Trace.Exec { queue_wait_s = 0.125 });
  Trace.record t ~job:0 (Trace.Respond { outcome = "maybe_executed" });
  let lines = Trace.jsonl_lines t in
  (match Trace.parse_jsonl lines with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok parsed ->
      Alcotest.(check int) "line count preserved" (List.length lines)
        (List.length parsed);
      (* print . parse is a fixed point on every line *)
      List.iter2
        (fun raw p -> Alcotest.(check string) "fixed point" raw (Trace.line_to_string p))
        lines parsed);
  (* totality on hostile bytes *)
  List.iter
    (fun junk ->
      match Trace.parse_line junk with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "junk parsed: %s" junk)
    [ "not json"; "{}"; "{\"type\":\"event\"}"; "{\"type\":\"nope\"}"; "[1,2]" ]

let test_trace_chrome_export () =
  let t = Trace.create ~nonce:5 () in
  Trace.record t ~job:1 Trace.Enqueue;
  Trace.record t ~job:1 (Trace.Dispatch { backend = "b0"; attempt = 1 });
  Trace.record t ~job:1 (Trace.Respond { outcome = "result" });
  match Json.parse_opt (Trace.chrome_json t) with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr evs) ->
          Alcotest.(check bool) "has trace events" true (List.length evs > 0)
      | _ -> Alcotest.fail "traceEvents missing or not an array")
  | _ -> Alcotest.fail "chrome export is not a JSON object"

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
        Alcotest.test_case "hist under/overflow" `Quick test_hist_underflow_overflow;
        Alcotest.test_case "hist nan quarantined" `Quick test_hist_nan_quarantined;
        Alcotest.test_case "hist quantiles" `Quick test_hist_quantile_empty_and_order;
        Alcotest.test_case "hist negative-bound quantile" `Quick
          test_hist_negative_bound_quantile;
        Alcotest.test_case "hist quantile property (signed bounds)" `Quick
          test_hist_quantile_negative_bounds_property;
        Alcotest.test_case "hist max value" `Quick test_hist_max_value;
        Alcotest.test_case "hist invalid bounds" `Quick test_hist_invalid_bounds;
        Alcotest.test_case "hist merge mismatch" `Quick test_hist_merge_bounds_mismatch;
        Alcotest.test_case "registry merge commutative" `Quick test_registry_merge_commutative;
        Alcotest.test_case "registry merge associative" `Quick test_registry_merge_associative;
        Alcotest.test_case "registry kind mismatch" `Quick test_registry_kind_mismatch;
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "ring partial fill" `Quick test_ring_partial_fill;
        Alcotest.test_case "ring wraparound at non-divisible stride" `Quick
          test_ring_wraparound_nondivisible_stride;
        Alcotest.test_case "span records on raise" `Quick test_span_records_on_raise;
        Alcotest.test_case "sink noop inert" `Quick test_sink_noop_inert;
        Alcotest.test_case "sink stride" `Quick test_sink_stride;
        Alcotest.test_case "sink merge" `Quick test_sink_merge;
        Alcotest.test_case "slrh bit-identical with obs" `Quick test_slrh_bit_identical_with_obs;
        Alcotest.test_case "churn bit-identical with obs" `Quick test_churn_bit_identical_with_obs;
        Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
        Alcotest.test_case "summary json" `Quick test_summary_json_counters;
        Alcotest.test_case "non-finite floats null" `Quick test_nonfinite_floats_export_null;
        Alcotest.test_case "json nan/inf round trip" `Quick test_json_nan_inf_round_trip;
        Alcotest.test_case "window rolling totals" `Quick test_window_rolling;
        Alcotest.test_case "window quantile ages out" `Quick test_window_quantile_ages_out;
        Alcotest.test_case "window early-life rate" `Quick test_window_rate_early_life;
        Alcotest.test_case "window merge" `Quick test_window_merge;
        Alcotest.test_case "trace ids" `Quick test_trace_ids;
        Alcotest.test_case "trace ring bounded" `Quick test_trace_ring_bounded;
        Alcotest.test_case "trace exemplars and pending caps" `Quick
          test_trace_exemplars_and_pending;
        Alcotest.test_case "trace per-job timeline cap" `Quick test_trace_per_job_cap;
        Alcotest.test_case "trace jsonl round trip" `Quick test_trace_jsonl_round_trip;
        Alcotest.test_case "trace chrome export" `Quick test_trace_chrome_export;
      ] );
  ]
