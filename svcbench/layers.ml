(* The traced run: call each layer's public function in-process on the
   workload's own requests and time every call. Each job also runs once
   through [Job.run] bare and once with an observability sink on the
   scheduler (alternating which goes first), which prices the tracing and
   splits the scheduler's time into its own spans. *)

module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Serialize = Agrid_workload.Serialize
module Slrh = Agrid_core.Slrh
module Sink = Agrid_obs.Sink

let now = Drive.now

type t = {
  samples : (string, float list ref) Hashtbl.t;
  sink : Sink.t;  (** every traced job's sink, merged *)
  mutable plain_s : float;
  mutable traced_s : float;
  mutable jobs : int;
  mutable major_collections : int;
}

let record t name v =
  match Hashtbl.find_opt t.samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add t.samples name (ref [ v ])

let values t name =
  match Hashtbl.find_opt t.samples name with Some l -> Array.of_list !l | None -> [||]

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The parameters [Job.run] builds for a spec without deadline or dual
   ascent (every request the benchmark sends). *)
let params_of (spec : Job.spec) =
  {
    (Slrh.default_params ~variant:spec.Job.variant
       (Agrid_core.Objective.make_weights ~alpha:spec.Job.alpha ~beta:spec.Job.beta))
    with
    Slrh.delta_t = spec.Job.delta_t;
    horizon = spec.Job.horizon;
    mode = spec.Job.mode;
  }

let sum_stats (a : Slrh.stats) (b : Slrh.stats) =
  {
    a with
    Slrh.clock_steps = a.Slrh.clock_steps + b.Slrh.clock_steps;
    candidates_scored = a.Slrh.candidates_scored + b.Slrh.candidates_scored;
  }

let one_job t ~idx line (spec : Job.spec) =
  record t "codec.request_bytes" (float_of_int (String.length line));
  let parsed, dt = timed (fun () -> Codec.parse_request line) in
  record t "codec.parse_request_us" (dt *. 1e6);
  (match parsed with
  | Ok (Codec.Submit _) -> ()
  | Ok _ | Error _ -> Drive.fail "request %d does not parse as a job" idx);
  let plain () =
    let w0 = Gc.minor_words () in
    let r, dt = timed (fun () -> Job.run spec) in
    record t "gc.minor_words" (Gc.minor_words () -. w0);
    record t "job.run_ms" (dt *. 1e3);
    t.plain_s <- t.plain_s +. dt;
    r
  in
  let traced () =
    let sink = Sink.create () in
    let _, dt = timed (fun () -> Job.run ~obs:sink spec) in
    Sink.merge_into ~into:t.sink sink;
    t.traced_s <- t.traced_s +. dt
  in
  let result =
    if t.jobs mod 2 = 0 then begin
      let r = plain () in
      traced ();
      r
    end
    else begin
      traced ();
      plain ()
    end
  in
  let workload, dt = timed (fun () -> Serialize.realize spec.Job.scenario) in
  (match spec.Job.scenario with
  | Serialize.Pinned _ -> record t "realize.pinned_us" (dt *. 1e6)
  | Serialize.Generated _ -> record t "realize.generated_us" (dt *. 1e6));
  let params = params_of spec in
  let stats =
    match spec.Job.events with
    | [] ->
        let out, dt = timed (fun () -> Slrh.run params workload) in
        record t "slrh.run_ms" (dt *. 1e3);
        out.Slrh.stats
    | events ->
        let out, dt = timed (fun () -> Agrid_core.Dynamic.run_churn params workload events) in
        record t "churn.run_ms" (dt *. 1e3);
        record t "churn.discarded" (float_of_int out.Agrid_churn.Engine.n_discarded);
        (match out.Agrid_churn.Engine.phases with
        | [] -> Drive.fail "churn run of request %d has no phase" idx
        | p :: ps ->
            List.fold_left
              (fun acc ph -> sum_stats acc ph.Agrid_churn.Engine.ph_outcome.Slrh.stats)
              p.Agrid_churn.Engine.ph_outcome.Slrh.stats ps)
  in
  record t "slrh.clock_steps" (float_of_int stats.Slrh.clock_steps);
  record t "slrh.candidates_scored" (float_of_int stats.Slrh.candidates_scored);
  let reply, dt =
    timed (fun () ->
        Codec.result_line ~id:idx ~tag:spec.Job.tag ~latency_s:result.Job.wall_seconds result)
  in
  record t "codec.result_line_us" (dt *. 1e6);
  let _, dt = timed (fun () -> Codec.parse_response reply) in
  record t "codec.parse_response_us" (dt *. 1e6);
  t.jobs <- t.jobs + 1

(* Run jobs from the workload's request stream (probes skipped) until
   [max_jobs] are done or [budget_s] has passed, at least [min_jobs]. *)
let run gen ~min_jobs ~max_jobs ~budget_s =
  let t =
    {
      samples = Hashtbl.create 32;
      sink = Sink.create ();
      plain_s = 0.;
      traced_s = 0.;
      jobs = 0;
      major_collections = 0;
    }
  in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let rec go idx =
    if t.jobs < max_jobs && (t.jobs < min_jobs || now () -. t0 < budget_s) then begin
      (match Gen.request gen idx with
      | Gen.Submit { spec; _ } as req -> one_job t ~idx (Gen.line req) spec
      | Gen.Health | Gen.Stats -> ());
      go (idx + 1)
    end
  in
  go 0;
  t.major_collections <- (Gc.quick_stat ()).Gc.major_collections - majors0;
  t

(* Total seconds the merged sink spent in a span, 0 if never entered. *)
let span_total t name =
  match List.find_opt (fun s -> s.Agrid_obs.Span.name = name) (Sink.span_stats t.sink) with
  | Some s -> s.Agrid_obs.Span.total_s
  | None -> 0.

let mean0 a = if Array.length a = 0 then 0. else Stat.mean a
let p50 a = if Array.length a = 0 then 0. else Stat.quantile a 0.5
let p99 a = if Array.length a = 0 then 0. else Stat.quantile a 0.99

(* The scheduler's inner spans, as shares of its run span. *)
let slrh_spans = [ "slrh/pool_build"; "slrh/score"; "slrh/plan"; "feasibility/filter" ]

(* One job's service time as a worker sees it: decode, run, encode. *)
let service_ms t =
  (mean0 (values t "codec.parse_request_us") /. 1e3)
  +. mean0 (values t "job.run_ms")
  +. (mean0 (values t "codec.result_line_us") /. 1e3)

let scheduler_ms t =
  mean0 (values t "slrh.run_ms") +. mean0 (values t "churn.run_ms")

let realize_ms t =
  (mean0 (values t "realize.pinned_us") +. mean0 (values t "realize.generated_us")) /. 1e3

let codec_ms t =
  (mean0 (values t "codec.parse_request_us") +. mean0 (values t "codec.result_line_us")) /. 1e3

let codec_realize_ms t = codec_ms t +. realize_ms t

let overhead_pct t =
  if t.plain_s > 0. then 100. *. (t.traced_s -. t.plain_s) /. t.plain_s else 0.

(* Per-layer metrics: (name, value, unit). *)
let metrics t =
  let base = service_ms t in
  let share ms = if base > 0. then 100. *. ms /. base else 0. in
  let slrh = values t "slrh.run_ms" in
  let steps = mean0 (values t "slrh.clock_steps") in
  let slrh_total = span_total t "slrh/run" in
  [
    ("slrh.run_ms", p50 slrh, "ms");
    ("slrh.run_p99_ms", p99 slrh, "ms");
    ("slrh.clock_steps", steps, "count");
    ("slrh.candidates_scored", mean0 (values t "slrh.candidates_scored"), "count");
    ( "slrh.us_per_step",
      (if steps > 0. then scheduler_ms t *. 1e3 /. steps else 0.),
      "us" );
    ("slrh.share_pct", share (scheduler_ms t), "%");
  ]
  @ List.map
      (fun span ->
        let name =
          String.map (function '/' -> '.' | c -> c) span ^ "_share_pct"
        in
        ( name,
          (if slrh_total > 0. then 100. *. span_total t span /. slrh_total else 0.),
          "%" ))
      slrh_spans
  @ [
      ("codec.parse_request_us", p50 (values t "codec.parse_request_us"), "us");
      ("codec.result_line_us", p50 (values t "codec.result_line_us"), "us");
      ("codec.parse_response_us", p50 (values t "codec.parse_response_us"), "us");
      ("codec.request_bytes", mean0 (values t "codec.request_bytes"), "bytes");
      ("realize.pinned_us", p50 (values t "realize.pinned_us"), "us");
      ("realize.generated_us", p50 (values t "realize.generated_us"), "us");
      ("codec_realize.share_pct", share (codec_realize_ms t), "%");
      ("job.run_ms", p50 (values t "job.run_ms"), "ms");
      ("churn.run_ms", p50 (values t "churn.run_ms"), "ms");
      ("churn.discarded", mean0 (values t "churn.discarded"), "count");
      ("gc.minor_words_per_job", mean0 (values t "gc.minor_words"), "words");
      ("gc.major_collections", float_of_int t.major_collections, "count");
      ("trace.overhead_pct", overhead_pct t, "%");
    ]

(* The per-layer table: layer, calls, busy p50/p99, share of one job's
   service time (decode + Job.run + encode). *)
let pp_table ppf t =
  let base = service_ms t in
  Fmt.pf ppf "%-24s %7s %11s %11s %8s@." "layer" "calls" "busy p50" "busy p99" "share";
  let row name ~scale ~unit =
    let v = values t name in
    if Array.length v > 0 then
      Fmt.pf ppf "%-24s %7d %8.3f %2s %8.3f %2s %7.1f%%@." name (Array.length v) (p50 v) unit
        (p99 v) unit
        (if base > 0. then 100. *. Stat.mean v /. scale /. base else 0.)
  in
  row "codec.parse_request_us" ~scale:1e3 ~unit:"us";
  row "realize.generated_us" ~scale:1e3 ~unit:"us";
  row "realize.pinned_us" ~scale:1e3 ~unit:"us";
  row "slrh.run_ms" ~scale:1. ~unit:"ms";
  row "churn.run_ms" ~scale:1. ~unit:"ms";
  row "codec.result_line_us" ~scale:1e3 ~unit:"us";
  row "job.run_ms" ~scale:1. ~unit:"ms";
  let summarize = mean0 (values t "job.run_ms") -. scheduler_ms t -. realize_ms t in
  Fmt.pf ppf "%-24s %7s %11s %11s %7.1f%%@." "summarize (remainder)" "-" "-" "-"
    (if base > 0. then 100. *. summarize /. base else 0.);
  row "codec.parse_response_us" ~scale:1e3 ~unit:"us";
  let slrh_total = span_total t "slrh/run" in
  List.iter
    (fun span ->
      Fmt.pf ppf "  %-22s %7s %11s %11s %7.1f%% of slrh/run@." span "-" "-" "-"
        (if slrh_total > 0. then 100. *. span_total t span /. slrh_total else 0.))
    slrh_spans;
  Fmt.pf ppf "service time %.3f ms/job over %d jobs; trace.overhead_pct %.2f%% (sink on vs off)@."
    base t.jobs (overhead_pct t)
