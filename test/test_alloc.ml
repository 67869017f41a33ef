(* Allocation-budget suite for the scheduler's pool-maintenance modes.

   Measures heap allocation per steady-state timestep with an A/B
   differential: two fresh, identical runs of a commit-free scenario
   that differ only in delta_t, hence only in timestep count. Per-run
   constants — the schedule, the arena, the memo, closures built before
   the loop — cancel in the difference, leaving exactly
   bytes-per-extra-timestep. Gc.allocated_bytes is an exact allocation
   count (not a heap size), so the measurement is deterministic and the
   SoA budget can be asserted as EXACTLY zero: one stray closure, boxed
   float or tuple on the steady-state path shows up as a hard failure
   here, not as GC noise in a benchmark.

   The soa walk jumps the clock over timesteps that cannot plan, so the
   commit-free scenario (batteries scaled to ~nothing, every pool empty)
   now jumps from its first sweep to the end; measured as is, it pins
   that jumped steps cost nothing. The swept fixtures keep every step
   swept by making machine 0 busy at every grid point of both runs (a
   one-cycle interval at every multiple of 5): with empty pools they pin
   the old steady state (reused pools, every walk exhausted, plus the
   busy machine's free-time lookup); with every root replayed far past
   tau they hold non-empty pools whose every candidate the parent-ready
   bound rules out, so each swept step re-scores, sorts and walks them
   without planning.

   Budgets per mode:
   - `Soa      : 0 bytes per swept timestep, with empty pools and with
                 pools the bound rules out, and 0 bytes per jumped
                 timestep, all three variants. The flat arena is the
                 whole point — reused pools re-score into preallocated
                 rows (both versions inline off the workload's cycle
                 table, no boxed float even under the dev profile's
                 -opaque) and the walk commits off the arena.
   - `Rescan   : nonzero (span thunks, pool lists, scored tuples) on the
                 commit-free scenario, where it sweeps every step.
                 Asserted positive — if the boxed oracle ever measures 0
                 the harness itself has gone blind — and under a generous
                 ceiling so a quadratic blowup still fails.

   An active-scenario check rides along: over a full run that actually
   commits (normal batteries), SoA must allocate strictly less in total
   than the rescan oracle.

   Per-plan budget: one [Schedule.plan] of the same three-parent task,
   once on a schedule with near-empty channels and once after thousands of
   transfers have been committed on every channel it touches, must
   allocate exactly the same number of bytes (nothing that grows with
   channel length — a timeline copy would) and at most
   [plan_budget_bytes].

   Whole-run budget: one SoA SLRH-1 run of the pinned-scale scenario
   ([Spec.scaled ~seed:7 ~factor:0.125], Case A, ETC/DAG 0, delta_t 100:
   128 tasks, the scale and timestep of svcbench's serve-pinned-repeat)
   must allocate at most [run_budget_bytes] — the schedule it keeps, the
   arena and nothing per plan, commit or priced pair beyond the records
   the schedule retains. bench/baseline_obs.json commits the same budget
   as the "slrh/minor_alloc_bytes_run" gauge.

   Realize budget: one [Serialize.realize] of a fixed generated scenario
   and of a fixed pinned text must allocate at most the bytes committed
   as bench/baseline_obs.json's "realize/" gauges. *)

open Agrid_workload
module Slrh = Agrid_core.Slrh
module Grid = Agrid_platform.Grid

let failures = ref 0

let check msg ok =
  if not ok then begin
    incr failures;
    Fmt.epr "test_alloc: FAIL %s@." msg
  end

let weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3

(* The generated mid-size scenario the integration suites use. *)
let spec = Spec.scaled ~seed:11 ~factor:(48. /. 1024.) ()

let active_workload = Workload.build spec ~etc_index:0 ~dag_index:0 ~case:Grid.A

(* Commit-free variant: same shape, batteries ~zero. Spec validation
   requires a positive scale, so scale rather than zero out. *)
let steady_workload =
  Workload.build
    { spec with Spec.battery_scale = 1e-9 *. spec.Spec.battery_scale }
    ~etc_index:0 ~dag_index:0 ~case:Grid.A

(* A fresh schedule for [wl] with machine 0 busy at every multiple of 5
   up to past tau — every grid point of the delta_t 10 and 5 runs — so no
   sweep may jump. [~far_roots] also replays every root on machines
   1.. far past tau, leaving only candidates the bound rules out. *)
let swept_schedule ~far_roots wl =
  let module Schedule = Agrid_sched.Schedule in
  let sched = Schedule.create wl in
  let m = Workload.n_machines wl in
  let far = 10 * Workload.tau wl in
  if far_roots then
    List.iteri
      (fun i task ->
        Schedule.replay_placement sched
          {
            Schedule.task;
            version = Version.Primary;
            machine = 1 + (i mod (m - 1));
            start = far + (10 * i);
            stop = far + (10 * i) + 5;
          })
      (Agrid_dag.Dag.roots (Workload.dag wl));
  let busy = Schedule.exec_timeline sched 0 in
  for k = 0 to (Workload.tau wl / 5) + 1 do
    Agrid_sched.Timeline.insert busy ~start:(5 * k) ~stop:((5 * k) + 1)
  done;
  sched

let run_measured ?(fixture = Agrid_sched.Schedule.create) ~mode ~variant ~delta_t wl =
  let p =
    { (Slrh.default_params ~variant weights) with Slrh.mode; delta_t }
  in
  let sched = fixture wl in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let o = Slrh.continue_run p sched in
  Gc.minor ();
  let after = Gc.allocated_bytes () in
  (o.Slrh.stats, after -. before)

(* Bytes per steady-state timestep: run a commit-free fixture at delta_t
   10 and 5 (double the steps), divide the allocation difference by the
   step difference. A warm-up run per (mode, variant) keeps one-time
   pricing out of run A. [shape] checks the two runs' stats: that the
   fixture was swept, or jumped, as intended. *)
let steady_bytes_per_step ?fixture ~shape ~mode ~variant wl =
  ignore (run_measured ?fixture ~mode ~variant ~delta_t:10 wl);
  let a, bytes_a = run_measured ?fixture ~mode ~variant ~delta_t:10 wl in
  let b, bytes_b = run_measured ?fixture ~mode ~variant ~delta_t:5 wl in
  let steps (st : Slrh.stats) = st.Slrh.clock_steps in
  check
    (Fmt.str "steady scenario commits nothing (%s)" (Slrh.mode_to_string mode))
    (steps b > steps a && a.Slrh.assignments = 0 && b.Slrh.assignments = 0);
  shape a;
  shape b;
  (bytes_b -. bytes_a) /. float_of_int (steps b - steps a)

(* Every step swept: every machine but the busy machine 0 builds a pool
   at every step, and (soa) the bound leaves nothing to plan. *)
let swept ~mode ~scored wl (st : Slrh.stats) =
  check
    (Fmt.str "%s: every step swept" (Slrh.mode_to_string mode))
    (st.Slrh.pools_built >= (Workload.n_machines wl - 1) * st.Slrh.clock_steps);
  check
    (Fmt.str "%s: pools as intended (scored %d)" (Slrh.mode_to_string mode)
       st.Slrh.candidates_scored)
    (scored = (st.Slrh.candidates_scored > 0));
  if mode = `Soa then check "soa: nothing planned" (st.Slrh.plans_attempted = 0)

let jumped (st : Slrh.stats) =
  check "soa: the commit-free run jumped" (st.Slrh.pools_built < st.Slrh.clock_steps)

let active_total_bytes ~mode ~variant =
  ignore (run_measured ~mode ~variant ~delta_t:10 active_workload);
  snd (run_measured ~mode ~variant ~delta_t:10 active_workload)

let variants = [ (Slrh.V1, "V1"); (Slrh.V2, "V2"); (Slrh.V3, "V3") ]
(* Per-plan allocation. Task 3 joins three parents: tasks 0 and 1 on
   machine 0 (two transfers sharing its out-channel) and task 2 on machine
   2, all feeding machine 1's in-channel. The long-channel schedule is the
   same plus [pad] transfers replayed far in the future on each of those
   channels, so the plan itself is unchanged. *)
let plan_budget_bytes = 480.

let plan_bytes ~pad =
  let module Machine = Agrid_platform.Machine in
  let n = 4 in
  let base = Spec.paper_scale ~seed:7 () in
  let spec =
    {
      base with
      Spec.n_tasks = n;
      etc_params = Agrid_etc.Etc.default_params ~n_tasks:n;
      dag_params = Agrid_dag.Generate.default_params ~n;
    }
  in
  let etc =
    Agrid_etc.Etc.of_matrix
      ~klasses:Machine.[| Fast; Fast; Slow; Slow |]
      (Array.make n [| 10.; 12.; 100.; 110. |])
  in
  let dag = Agrid_dag.Dag.of_edges ~n [ (0, 3); (1, 3); (2, 3) ] in
  let wl =
    Workload.build spec ~etc ~dag ~data_bits:[| 1e6; 1e6; 1e6 |] ~etc_index:0
      ~dag_index:0 ~case:Grid.A
  in
  let sched = Agrid_sched.Schedule.create wl in
  List.iter
    (fun (task, machine) ->
      Agrid_sched.Schedule.commit sched
        (Agrid_sched.Schedule.plan sched ~task ~version:Version.Primary ~machine
           ~not_before:0))
    [ (0, 0); (1, 0); (2, 2) ];
  for i = 0 to pad - 1 do
    List.iter
      (fun (src, dst) ->
        Agrid_sched.Schedule.replay_transfer sched
          {
            Agrid_sched.Schedule.edge = 0;
            src_task = 0;
            dst_task = 3;
            src;
            dst;
            start = 1_000_000 + (10 * i);
            stop = 1_000_005 + (10 * i);
            bits = 1e6;
            energy = 0.;
          })
      [ (0, 2); (2, 3); (3, 1) ]
  done;
  let plan () =
    Agrid_sched.Schedule.plan sched ~task:3 ~version:Version.Primary ~machine:1
      ~not_before:0
  in
  let p = plan () in
  let calls = 1000 in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (plan ()))
  done;
  Gc.minor ();
  let after = Gc.allocated_bytes () in
  (p, (after -. before) /. float_of_int calls)

(* Whole-run allocation of the pinned-scale run, after a warm-up: bytes
   (the gated figure) and minor words. *)
let run_budget_bytes = 65226.

let run_allocation () =
  let wl =
    Workload.build (Spec.scaled ~seed:7 ~factor:0.125 ()) ~etc_index:0 ~dag_index:0
      ~case:Grid.A
  in
  let p = { (Slrh.default_params weights) with Slrh.delta_t = 100 } in
  ignore (Slrh.run p wl);
  Gc.minor ();
  let bytes0 = Gc.allocated_bytes () and words0 = Gc.minor_words () in
  let o = Sys.opaque_identity (Slrh.run p wl) in
  let words = Gc.minor_words () -. words0 in
  Gc.minor ();
  (o, Gc.allocated_bytes () -. bytes0, words)

(* Realize allocation: bytes one [Serialize.realize] allocates after a
   warm-up, for the generated and pinned scenarios whose budgets
   bench/baseline_obs.json commits as the "realize/" gauges (the same
   scenarios bench/main.ml measures). *)
let realize_budgets = [ ("generated", 18256.); ("pinned", 41192.) ]

let realize_bytes scenario =
  ignore (Serialize.realize scenario);
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Serialize.realize scenario));
  Gc.minor ();
  Gc.allocated_bytes () -. before

let realize_scenario = function
  | "generated" ->
      Serialize.Generated
        { seed = 5; scale = 0.03; etc_index = 1; dag_index = 2; case = Grid.B }
  | _ ->
      Serialize.Pinned
        (Serialize.to_string
           (Serialize.spec_for ~seed:3 ~scale:0.125)
           ~etc_index:1 ~dag_index:2 ~case:Grid.A)

(* Codec allocation budgets: bytes one call allocates after a warm-up,
   for [Codec.parse_request] of a generated and of a pinned job line (the
   two request shapes svcbench's serve workloads send; the pinned one
   carries the realize budget's ~15 KB text) and for one
   [Codec.result_line]. The values parsed and printed are fixed, so the
   counts are exact. Besides its byte budget, the pinned parse may place
   at most one copy of the scenario text (plus [direct_major_slack_words])
   directly on the major heap: the decoded text itself. A string decoder
   that grows a buffer leaves each outgrown one there too. *)
let direct_major_slack_words = 64.

module Codec = Agrid_serve.Codec
module Job = Agrid_serve.Job

let pinned_text =
  match realize_scenario "pinned" with Serialize.Pinned text -> text | Serialize.Generated _ -> assert false

(* (name, budget in bytes, one call) *)
let codec_budgets () =
  let parse scenario =
    let line =
      Agrid_obs.Json.to_string
        (Codec.job_to_json { (Job.default scenario) with Job.tag = Some "17"; delta_t = 100 })
    in
    fun () -> ignore (Sys.opaque_identity (Codec.parse_request line))
  in
  let result =
    { (Job.run (Job.default (realize_scenario "generated"))) with Job.wall_seconds = 0.00123 }
  in
  [
    ("parse_request generated", 6112., parse (realize_scenario "generated"));
    ("parse_request pinned", 19872., parse (Serialize.Pinned pinned_text));
    ( "result_line",
      3104.,
      fun () ->
        ignore
          (Sys.opaque_identity
             (Codec.result_line ~id:7 ~tag:(Some "17") ~latency_s:0.0456 result)) );
  ]

(* bytes one call allocates, and the words of them placed directly on
   the major heap (allocated there, not promoted) *)
let codec_allocation call =
  call ();
  Gc.minor ();
  let s0 = Gc.quick_stat () and before = Gc.allocated_bytes () in
  call ();
  Gc.minor ();
  let s1 = Gc.quick_stat () and after = Gc.allocated_bytes () in
  ( after -. before,
    s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let () =
  Fmt.pr "steady-state bytes/timestep (%d tasks):@." (Workload.n_tasks steady_workload);
  Fmt.pr "  %-30s %10s %10s %10s@." "mode, fixture" "V1" "V2" "V3";
  let row label f =
    let per_variant = List.map (fun (variant, _) -> f ~variant) variants in
    Fmt.pr "  %-30s %10.1f %10.1f %10.1f@." label (List.nth per_variant 0)
      (List.nth per_variant 1) (List.nth per_variant 2);
    List.combine (List.map snd variants) per_variant
  in
  let empty_swept =
    row "soa, swept, empty pools"
      (steady_bytes_per_step ~fixture:(swept_schedule ~far_roots:false)
         ~shape:(swept ~mode:`Soa ~scored:false steady_workload)
         ~mode:`Soa steady_workload)
  in
  let soa_jumped =
    row "soa, jumped" (steady_bytes_per_step ~shape:jumped ~mode:`Soa steady_workload)
  in
  let bounded fixture_mode =
    steady_bytes_per_step ~fixture:(swept_schedule ~far_roots:true)
      ~shape:(swept ~mode:fixture_mode ~scored:true active_workload)
      ~mode:fixture_mode active_workload
  in
  let soa_bounded = row "soa, swept, bounded-out pools" (bounded `Soa) in
  let rescan_bounded = row "rescan, swept, bounded-out" (bounded `Rescan) in
  let rescan =
    row "rescan, commit-free"
      (steady_bytes_per_step ~shape:ignore ~mode:`Rescan steady_workload)
  in
  List.iter
    (fun (fixture, per_variant) ->
      List.iter
        (fun (vname, bytes) ->
          (* the tentpole budget: EXACTLY zero, not "small" *)
          check
            (Fmt.str "soa %s %s = 0 bytes/timestep (got %g)" fixture vname bytes)
            (bytes = 0.))
        per_variant)
    [ ("swept", empty_swept); ("jumped", soa_jumped); ("bounded-out", soa_bounded) ];
  List.iter
    (fun (vname, bytes) ->
      (* the boxed oracle scores the same pools and allocates; a zero here
         means the bounded-out fixture is measuring nothing *)
      check
        (Fmt.str "rescan %s bounded-out step allocates (harness sanity)" vname)
        (bytes > 0.))
    rescan_bounded;
  List.iter
    (fun (vname, bytes) ->
      (* the boxed oracle allocates; a zero here means the harness is
         measuring nothing *)
      check (Fmt.str "rescan %s steady state allocates (harness sanity)" vname)
        (bytes > 0.);
      check
        (Fmt.str "rescan %s steady state under ceiling (got %g)" vname bytes)
        (bytes <= 65536.))
    rescan;
  (* Single tenant under the tenant engine: the traffic fast path (one
     live application, no pending arrivals or events) must delegate to a
     single unchunked [Slrh.continue_run], so the tenant layer's
     allocation is a per-run constant — arrivals list, queues, DRR state,
     the outcome record — and its per-timestep overhead over a direct
     [Slrh.run] of the same workload is EXACTLY zero. A/B over delta_t:
     both runs are bit-identical to the direct run (pinned by
     test_tenant), so the scheduler's own allocation cancels in the
     traffic-minus-direct difference, and the remainder must not scale
     with the step count. *)
  let module Traffic = Agrid_tenant.Traffic in
  let module Tenant = Agrid_tenant.Tenant in
  let traffic_spec =
    {
      (Traffic.make_spec ~seed:11 ~horizon:10
         [
           {
             Traffic.ts_tenant = Tenant.make "solo";
             ts_process = Agrid_tenant.Arrivals.Trace [ 0 ];
           };
         ])
      with
      Traffic.scale = 48. /. 1024.;
    }
  in
  let solo_workload = Traffic.app_workload traffic_spec ~stream:0 ~seq:0 in
  (* Unlike the commit-free windows above, these runs commit and allocate
     megabytes, and on OCaml 5 the major/promoted counters behind
     [Gc.allocated_bytes] lag the mutator until the next minor
     collection — multi-MB windows read through that lag come out
     nondeterministic by roughly a minor-heap's worth. Flushing with
     [Gc.minor] before each read makes the window exact again. *)
  let measured f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = f () in
    Gc.minor ();
    (r, Gc.allocated_bytes () -. before)
  in
  let traffic_overhead ~delta_t =
    let params =
      { (Slrh.default_params weights) with Slrh.mode = `Soa; delta_t }
    in
    let params_for ~tenant:_ ~seq:_ = params in
    ignore (Traffic.run ~params_for traffic_spec) (* warm-up *);
    let o, traffic_bytes = measured (fun () -> Traffic.run ~params_for traffic_spec) in
    ignore (Slrh.run params solo_workload) (* warm-up *);
    let d, direct_bytes = measured (fun () -> Slrh.run params solo_workload) in
    check
      (Fmt.str "tenant fast path step count matches direct run (delta_t %d)"
         delta_t)
      (o.Traffic.total_steps = d.Slrh.stats.Slrh.clock_steps);
    (traffic_bytes -. direct_bytes, o.Traffic.total_steps)
  in
  let ov_a, steps_a = traffic_overhead ~delta_t:10 in
  let ov_b, steps_b = traffic_overhead ~delta_t:5 in
  let per_step = (ov_b -. ov_a) /. float_of_int (max 1 (steps_b - steps_a)) in
  Fmt.pr
    "tenant-engine overhead: %g bytes/timestep (constant %+.0f bytes/run, %d \
     vs %d steps)@."
    per_step ov_a steps_a steps_b;
  check "tenant A/B runs differ in step count (harness sanity)"
    (steps_b > steps_a);
  check
    (Fmt.str "single-tenant soa fast path adds 0 bytes/timestep (got %g)"
       per_step)
    (per_step = 0.);
  let short_plan, short_bytes = plan_bytes ~pad:0 in
  let long_plan, long_bytes = plan_bytes ~pad:4000 in
  Fmt.pr "bytes/plan (3 parents): short channels %g, long channels %g (budget %g)@."
    short_bytes long_bytes plan_budget_bytes;
  check "padded channels leave the plan unchanged (harness sanity)"
    (short_plan = long_plan
    && List.length short_plan.Agrid_sched.Schedule.pl_transfers = 3);
  check
    (Fmt.str "plan allocation independent of channel length (%g vs %g)"
       short_bytes long_bytes)
    (short_bytes = long_bytes);
  check
    (Fmt.str "plan allocation under %g bytes (got %g)" plan_budget_bytes long_bytes)
    (long_bytes <= plan_budget_bytes);
  let run, run_bytes, run_words = run_allocation () in
  Fmt.pr "bytes/run (pinned scale, %d plans): %g, %g minor words (budget %g bytes)@."
    run.Slrh.stats.Slrh.plans_attempted run_bytes run_words run_budget_bytes;
  check "pinned-scale run completes (harness sanity)" run.Slrh.completed;
  check
    (Fmt.str "pinned-scale run allocation under %g bytes (got %g)" run_budget_bytes
       run_bytes)
    (run_bytes <= run_budget_bytes);
  List.iter
    (fun (name, budget) ->
      let bytes = realize_bytes (realize_scenario name) in
      Fmt.pr "bytes/realize (%s): %g (budget %g)@." name bytes budget;
      check
        (Fmt.str "realize %s allocation under %g bytes (got %g)" name budget bytes)
        (bytes <= budget))
    realize_budgets;
  List.iter
    (fun (name, budget, call) ->
      let bytes, direct_words = codec_allocation call in
      Fmt.pr "bytes/codec (%s): %g, %g words direct to the major heap (budget %g)@." name
        bytes direct_words budget;
      check
        (Fmt.str "codec %s allocation under %g bytes (got %g)" name budget bytes)
        (bytes <= budget);
      if name = "parse_request pinned" then begin
        let text_words = float_of_int (String.length pinned_text / (Sys.word_size / 8)) in
        check
          (Fmt.str
             "pinned parse_request places one copy of the text on the major heap (%g \
              words, text %g)"
             direct_words text_words)
          (direct_words >= text_words
          && direct_words <= text_words +. direct_major_slack_words)
      end)
    (codec_budgets ());
  (* Active scenario: total allocation over a committing run. *)
  Fmt.pr "whole-run bytes (active scenario, %d tasks):@."
    (Workload.n_tasks active_workload);
  List.iter
    (fun (variant, vname) ->
      let soa = active_total_bytes ~mode:`Soa ~variant in
      let rescan = active_total_bytes ~mode:`Rescan ~variant in
      Fmt.pr "  %s: soa %.0f, rescan %.0f@." vname soa rescan;
      check (Fmt.str "active %s: soa < rescan" vname) (soa < rescan))
    variants;
  if !failures = 0 then Fmt.pr "test_alloc: OK@."
  else begin
    Fmt.epr "test_alloc: %d failure(s)@." !failures;
    exit 1
  end
