(* Differential oracle suite: [`Rescan] (the naive rebuild-everything
   loop with its boxed scored lists, kept as the reference semantics)
   versus [`Soa] (the flat preallocated arena, the default) must be
   bit-identical on every decision: schedules, clock steps, assignments,
   final clocks and every telemetry metric outside the work family.
   [`Soa] skips work whose result is already known — plans the
   parent-ready bound rules out, and whole timesteps that cannot plan —
   so the work family (pools built, candidates scored, plans, horizon
   misses, their spans and histograms) may only be smaller. Snapshots of
   a jumping run are a subset of the swept steps, so each one is checked
   against the stride-1 rescan snapshot at the same clock. The only
   other permitted divergence is the [`Soa]-only maintenance family
   ["slrh/pool_reused"] / ["slrh/pool_rebuilt"] / ["slrh/pool_capacity"]
   / ["slrh/pool_regrown"] / ["slrh/plans_bounded"] /
   ["slrh/steps_jumped"] (and span durations, which are wall time).

   A run whose sink carries a decision ledger takes the rescan walk
   whatever [mode] says, so the ledger bytes are pinned by the digest
   oracle in test_report; the ledger pairs here check that a ledger run
   commits what the recorder-free [`Soa] run commits, and that it never
   touched the arena. A QCheck property additionally
   pins the batch scorer against the public per-candidate
   [Objective.best_version], bit for bit, on partially built schedules.

   The same discipline pins campaign sharding: the level aggregates and
   counter totals of [Campaign.run] must not depend on [~shards]. *)

open Agrid_core
open Agrid_sched
open Agrid_workload
open Agrid_obs
module Rng = Agrid_prng.Splitmix64

(* Pool-maintenance metrics, all [`Soa]-only: the first two count pool
   reuse, the next two size the arena, the last two count skipped work. *)
let excluded_counters =
  [
    "slrh/pool_reused"; "slrh/pool_rebuilt"; "slrh/pool_capacity";
    "slrh/pool_regrown"; "slrh/plans_bounded"; "slrh/steps_jumped";
  ]

(* The work family: metrics and spans that count work done rather than
   decisions made. [`Soa] may do less of it than [`Rescan], never more;
   histograms compare by sample count. *)
let work_metrics =
  [
    "slrh/pools_built"; "slrh/candidates_scored"; "slrh/plans_attempted";
    "slrh/horizon_miss"; "slrh/pool_empty"; "feasibility/checked";
    "feasibility/admitted"; "objective/version_evals"; "slrh/pool_size";
    "slrh/score_value";
  ]

let work_spans = [ "slrh/plan"; "slrh/pool_build"; "slrh/score"; "feasibility/filter" ]

let mode_name mode = Slrh.mode_to_string mode
let fast_modes = [ `Soa ]

let bits = Int64.bits_of_float

let metric_repr (name, m) =
  match m with
  | Registry.Counter c -> Fmt.str "%s=c:%d" name c
  | Registry.Gauge g -> Fmt.str "%s=g:%Lx" name (bits g)
  | Registry.Histogram h ->
      Fmt.str "%s=h:%d:%Lx:%s" name (Hist.count h) (bits (Hist.sum h))
        (String.concat ","
           (List.map string_of_int (Array.to_list (Hist.counts h))))

let comparable_metrics ?(drop = []) sink =
  Sink.metrics sink
  |> List.filter (fun (n, _) ->
         not (List.mem n excluded_counters || List.mem n drop))
  |> List.map metric_repr |> List.sort compare

let span_counts ?(drop = []) sink =
  Sink.span_stats sink
  |> List.map (fun (s : Span.stats) -> (s.Span.name, s.Span.count))
  |> List.filter (fun (n, _) -> not (List.mem n drop))
  |> List.sort compare

(* A work metric's size: a counter's value, a histogram's sample count. *)
let work_amount sink name =
  match List.assoc_opt name (Sink.metrics sink) with
  | Some (Registry.Counter c) -> c
  | Some (Registry.Histogram h) -> Hist.count h
  | Some (Registry.Gauge _) | None -> 0

let span_count sink name =
  match
    List.find_opt (fun (s : Span.stats) -> s.Span.name = name) (Sink.span_stats sink)
  with
  | Some s -> s.Span.count
  | None -> 0

(* What a snapshot says about the schedule, as opposed to the work done
   since the previous one. *)
let snapshot_state (s : Snapshot.t) =
  ( s.Snapshot.clock,
    s.Snapshot.mapped,
    s.Snapshot.t100,
    Array.map bits s.Snapshot.energy )

(* Every [`Soa] snapshot must match a stride-1 rescan snapshot on clock,
   mapped, T100 and energy, in stream order (churn runs can revisit a
   clock across phases, so this is a subsequence match). *)
let check_snapshot_subsequence msg rescan soa =
  let rec go r = function
    | [] -> ()
    | s :: rest ->
        let want = snapshot_state s in
        let rec seek = function
          | [] ->
              Alcotest.failf "%s: soa snapshot at clock %d has no rescan match" msg
                s.Snapshot.clock
          | x :: xs -> if snapshot_state x = want then xs else seek xs
        in
        go (seek r) rest
  in
  if Sink.snapshots_dropped rescan > 0 then
    Alcotest.failf "%s: rescan snapshot ring overflowed" msg;
  go (Sink.snapshots rescan) (Sink.snapshots soa)

let counter_of sink name =
  match List.assoc_opt name (Sink.metrics sink) with
  | Some (Registry.Counter c) -> c
  | _ -> 0

(* Telemetry equality, modulo the maintenance family and durations.
   Work may only shrink, and the rescan sink must have sampled every step
   (stride 1) for the snapshot check. *)
let check_sinks msg rescan incr =
  Alcotest.(check (list string))
    (msg ^ ": metrics")
    (comparable_metrics ~drop:work_metrics rescan)
    (comparable_metrics ~drop:work_metrics incr);
  Alcotest.(check (list (pair string int)))
    (msg ^ ": span counts")
    (span_counts ~drop:work_spans rescan)
    (span_counts ~drop:work_spans incr);
  List.iter
    (fun name ->
      let r = work_amount rescan name and o = work_amount incr name in
      if o > r then Alcotest.failf "%s: soa did more %s work (%d > %d)" msg name o r)
    work_metrics;
  List.iter
    (fun name ->
      let r = span_count rescan name and o = span_count incr name in
      if o > r then Alcotest.failf "%s: soa ran more %s spans (%d > %d)" msg name o r)
    work_spans;
  check_snapshot_subsequence msg rescan incr;
  (* the optimised mode's sink may only add the pool-maintenance family *)
  let names s = List.map fst (Sink.metrics s) in
  let base = names rescan in
  List.iter
    (fun n ->
      if (not (List.mem n base)) && not (List.mem n excluded_counters) then
        Alcotest.failf "%s: unexpected mode-only metric %s" msg n)
    (names incr)

(* Stats: clock steps and assignments are decisions, so they match
   exactly; the work counters may only shrink. *)
let check_stats msg (a : Slrh.stats) (b : Slrh.stats) =
  Alcotest.(check int) (msg ^ ": clock steps") a.Slrh.clock_steps b.Slrh.clock_steps;
  Alcotest.(check int) (msg ^ ": assignments") a.Slrh.assignments b.Slrh.assignments;
  List.iter
    (fun (name, r, o) ->
      if o > r then Alcotest.failf "%s: soa did more %s (%d > %d)" msg name o r)
    [
      ("pools built", a.Slrh.pools_built, b.Slrh.pools_built);
      ("candidates scored", a.Slrh.candidates_scored, b.Slrh.candidates_scored);
      ("plans attempted", a.Slrh.plans_attempted, b.Slrh.plans_attempted);
    ]

(* Scheduler-outcome equality, field by field (wall_seconds excluded:
   it is measured, not computed). *)
let check_outcomes msg (a : Slrh.outcome) (b : Slrh.outcome) =
  if Schedule.placements a.Slrh.schedule <> Schedule.placements b.Slrh.schedule
  then Alcotest.failf "%s: placements diverge" msg;
  if Schedule.transfers a.Slrh.schedule <> Schedule.transfers b.Slrh.schedule
  then Alcotest.failf "%s: transfers diverge" msg;
  Alcotest.(check int) (msg ^ ": aet") (Schedule.aet a.Slrh.schedule)
    (Schedule.aet b.Slrh.schedule);
  if bits (Schedule.tec a.Slrh.schedule) <> bits (Schedule.tec b.Slrh.schedule)
  then Alcotest.failf "%s: TEC diverges bitwise" msg;
  Alcotest.(check int) (msg ^ ": t100")
    (Schedule.n_primary a.Slrh.schedule)
    (Schedule.n_primary b.Slrh.schedule);
  Alcotest.(check bool) (msg ^ ": completed") a.Slrh.completed b.Slrh.completed;
  Alcotest.(check int) (msg ^ ": final clock") a.Slrh.final_clock
    b.Slrh.final_clock;
  check_stats msg a.Slrh.stats b.Slrh.stats

(* The sink a run reports into. A ledger-free rescan run is the snapshot
   reference for a run that may jump, so it samples every step. *)
let sink_for ~mode ~ledger =
  match mode with
  | `Rescan when not ledger -> Sink.create ~stride:1 ~capacity:65536 ()
  | `Rescan | `Soa -> Sink.create ~stride:4 ~ledger ()

let run_static ~mode ~ledger sc wl =
  let sink = sink_for ~mode ~ledger in
  (Slrh.run { (Test_props.params sc) with Slrh.mode; obs = sink } wl, sink)

(* 150 static scenarios with no ledger attached — the shape whose
   steady-state allocation test_alloc pins at zero and the only one that
   skips plans and jumps steps. Outcome and telemetry must still match
   rescan — including the score-value histogram, whose float accumulation
   order is fill order, so this also pins that the arena scores in
   ready-list order. *)
let test_static mode () =
  let reused = ref 0 and regrown = ref 0 and bounded = ref 0 and jumped = ref 0 in
  for i = 0 to 149 do
    let sc = Test_props.scenario i in
    let wl = Test_props.workload sc in
    let o1, s1 = run_static ~mode:`Rescan ~ledger:false sc wl in
    let o2, s2 = run_static ~mode ~ledger:false sc wl in
    let msg = Fmt.str "%s vs %s" (Test_props.describe sc) (mode_name mode) in
    check_outcomes msg o1 o2;
    check_sinks msg s1 s2;
    if counter_of s1 "slrh/pool_reused" <> 0 then
      Alcotest.failf "%s: rescan mode counted a pool reuse" msg;
    reused := !reused + counter_of s2 "slrh/pool_reused";
    regrown := !regrown + counter_of s2 "slrh/pool_regrown";
    bounded := !bounded + counter_of s2 "slrh/plans_bounded";
    jumped := !jumped + counter_of s2 "slrh/steps_jumped"
  done;
  (* the oracle must exercise the fast path, not vacuously pass *)
  let never what n =
    if n = 0 then
      Alcotest.failf "%s mode never %s across 150 scenarios" (mode_name mode) what
  in
  never "reused a pool" !reused;
  never "regrew a row" !regrown;
  never "bound-skipped a plan" !bounded;
  never "jumped a step" !jumped

(* The same no-recorder [`Soa] walk on 60 further scenarios (150-209,
   disjoint from the static pairs above), so the fast path's pool reuse,
   row regrowth, bound skip and step jumps are each pinned against rescan
   on a second, independent draw. *)
let test_static_fast_path () =
  let reused = ref 0 and regrown = ref 0 and bounded = ref 0 and jumped = ref 0 in
  for i = 150 to 209 do
    let sc = Test_props.scenario i in
    let wl = Test_props.workload sc in
    let o1, s1 = run_static ~mode:`Rescan ~ledger:false sc wl in
    let o2, s2 = run_static ~mode:`Soa ~ledger:false sc wl in
    let msg = Fmt.str "%s, no recorders" (Test_props.describe sc) in
    check_outcomes msg o1 o2;
    check_sinks msg s1 s2;
    reused := !reused + counter_of s2 "slrh/pool_reused";
    regrown := !regrown + counter_of s2 "slrh/pool_regrown";
    bounded := !bounded + counter_of s2 "slrh/plans_bounded";
    jumped := !jumped + counter_of s2 "slrh/steps_jumped"
  done;
  if !reused = 0 then
    Alcotest.fail "soa fast path never reused a pool across 60 scenarios";
  if !regrown = 0 then
    Alcotest.fail "soa fast path never regrew a row across 60 scenarios";
  if !bounded = 0 then
    Alcotest.fail "soa fast path never bound-skipped a plan across 60 scenarios";
  if !jumped = 0 then
    Alcotest.fail "soa fast path never jumped a step across 60 scenarios"

(* Churn timelines: the same scripted leave/rejoin trace through the
   engine in both modes. Pool reuse spans engine phases only through the
   per-phase arenas (each [continue_run] builds its own), so equality
   here pins the eligible-set-stability assumption pool reuse makes. *)
let sample_events i wl =
  let rng = Rng.of_int (0xC0DE + (i * 131)) in
  let tau = Workload.tau wl in
  Agrid_churn.Sample.exponential_trace rng
    ~n_machines:(Workload.n_machines wl)
    ~horizon:tau
    ~up_mean:(fun _ -> float_of_int tau /. 1.5)
    ~down_mean:(fun _ -> 0.12 *. float_of_int tau)

let run_churn ~mode ~ledger sc wl events =
  let sink = sink_for ~mode ~ledger in
  let p = { (Test_props.params sc) with Slrh.mode; obs = sink } in
  (Dynamic.run_churn p wl events, sink)

let check_engine msg (a : _ Agrid_churn.Engine.outcome)
    (b : _ Agrid_churn.Engine.outcome) =
  if Schedule.placements a.Agrid_churn.Engine.schedule
     <> Schedule.placements b.Agrid_churn.Engine.schedule
  then Alcotest.failf "%s: engine placements diverge" msg;
  Alcotest.(check bool) (msg ^ ": completed") a.completed b.completed;
  Alcotest.(check int) (msg ^ ": final clock") a.final_clock b.final_clock;
  Alcotest.(check int) (msg ^ ": discarded") a.n_discarded b.n_discarded;
  Alcotest.(check int) (msg ^ ": failed") a.n_failed b.n_failed;
  Alcotest.(check int) (msg ^ ": held") a.n_held b.n_held;
  if bits a.sunk_energy <> bits b.sunk_energy then
    Alcotest.failf "%s: sunk energy diverges bitwise" msg;
  if a.up <> b.up || a.discards <> b.discards || a.applied <> b.applied then
    Alcotest.failf "%s: churn event application diverges" msg;
  let phase_shape (p : _ Agrid_churn.Engine.phase) =
    ( p.Agrid_churn.Engine.ph_from,
      p.Agrid_churn.Engine.ph_until,
      p.Agrid_churn.Engine.ph_up )
  in
  if List.map phase_shape a.phases <> List.map phase_shape b.phases then
    Alcotest.failf "%s: phase boundaries diverge" msg;
  List.iteri
    (fun k ((pa : Slrh.outcome Agrid_churn.Engine.phase), pb) ->
      check_stats
        (Fmt.str "%s: phase %d" msg k)
        pa.Agrid_churn.Engine.ph_outcome.Slrh.stats
        pb.Agrid_churn.Engine.ph_outcome.Slrh.stats)
    (List.combine a.phases b.phases)

let test_churn mode () =
  let jumped = ref 0 in
  for i = 0 to 59 do
    let sc = Test_props.scenario i in
    let wl = Test_props.workload sc in
    let events = sample_events i wl in
    let o1, s1 = run_churn ~mode:`Rescan ~ledger:false sc wl events in
    let o2, s2 = run_churn ~mode ~ledger:false sc wl events in
    let msg =
      Fmt.str "%s + %d churn events vs %s" (Test_props.describe sc)
        (List.length events) (mode_name mode)
    in
    check_engine msg o1 o2;
    check_sinks msg s1 s2;
    jumped := !jumped + counter_of s2 "slrh/steps_jumped"
  done;
  if !jumped = 0 then
    Alcotest.failf "%s mode never jumped a step across 60 churn timelines"
      (mode_name mode)

(* A battery shock landing mid-run, between two commits that in a static
   run would reuse the machine's cached candidate pool. The engine splits
   scheduler phases at the event, so soa mode must re-price admission
   against the shocked battery instead of replaying a pre-shock pool —
   rescan/soa equality across the boundary pins exactly that
   invalidation. Non-vacuity is asserted both ways: the shocks must
   actually charge energy, and the soa runs must actually reuse
   pools (so the fast path, not a degenerate always-rebuild, is what gets
   compared). *)
let test_battery_shock_mid_epoch mode () =
  let reused = ref 0 and shocked = ref 0. in
  for i = 0 to 19 do
    let sc = Test_props.scenario i in
    let wl = Test_props.workload sc in
    let at = Workload.tau wl / 3 in
    let machine = i mod Workload.n_machines wl in
    let events =
      [ { Agrid_churn.Event.at; kind = Agrid_churn.Event.Battery_shock (machine, 0.5) } ]
    in
    let o1, s1 = run_churn ~mode:`Rescan ~ledger:false sc wl events in
    let o2, s2 = run_churn ~mode ~ledger:false sc wl events in
    let msg =
      Fmt.str "%s + shock@%d:%d vs %s" (Test_props.describe sc) at machine
        (mode_name mode)
    in
    check_engine msg o1 o2;
    check_sinks msg s1 s2;
    (match o2.Agrid_churn.Engine.applied with
    | [ a ] -> Alcotest.(check int) (msg ^ ": one event applied") 1
        (match a.Agrid_churn.Engine.ev.Agrid_churn.Event.kind with
        | Agrid_churn.Event.Battery_shock _ -> 1
        | _ -> 0)
    | l -> Alcotest.failf "%s: expected exactly one applied event, got %d" msg (List.length l));
    shocked := !shocked +. o2.Agrid_churn.Engine.shock_energy;
    reused := !reused + counter_of s2 "slrh/pool_reused"
  done;
  if !shocked <= 0. then Alcotest.fail "no shock ever charged energy";
  if !reused = 0 then
    Alcotest.failf "%s mode never reused a pool around the shock"
      (mode_name mode)

(* Decision ledgers: a ledger run takes the rescan walk, whose bytes
   the digest oracle pins. It must commit what the recorder-free run of
   the same [mode] commits — schedule, clock steps, assignments, final
   clock; work may only shrink on the recorder-free side — and, asked
   for [`Soa], must not build a single arena pool. Every variant is
   covered, the SLRH-2 drain hardest. *)
(* Ledger pairs cycle the variant so every one is compared. *)
let ledger_scenario i =
  {
    (Test_props.scenario i) with
    Test_props.sc_variant = [| Slrh.V1; Slrh.V2; Slrh.V3 |].(i mod 3);
  }

(* Did some SLRH-2 drain commit twice from one pool? Only then are the
   drain's straggler-free ranks and pool sizes actually compared. *)
let drained_twice sink =
  match Sink.ledger sink with
  | None -> false
  | Some l ->
      let seen = Hashtbl.create 64 in
      Array.exists
        (function
          | Ledger.Commit { clock; machine; _ } ->
              Hashtbl.mem seen (clock, machine)
              || (Hashtbl.add seen (clock, machine) ();
                  false)
          | _ -> false)
        (Ledger.entries l)

(* The sink of a ledger run: a ledger, and no arena pool ever built. *)
let check_ledger_routed msg sink =
  if Sink.ledger sink = None then Alcotest.failf "%s: the sink has no ledger" msg;
  if counter_of sink "slrh/pool_rebuilt" <> 0 then
    Alcotest.failf "%s: the ledger run built arena pools" msg

let test_ledger mode () =
  let drains = ref 0 in
  let msg shape sc =
    Fmt.str "%s: %s ledger run vs %s" (Test_props.describe sc) shape (mode_name mode)
  in
  for i = 0 to 9 do
    let sc = ledger_scenario i in
    let wl = Test_props.workload sc in
    let o1, s1 = run_static ~mode ~ledger:true sc wl in
    let o2, _ = run_static ~mode ~ledger:false sc wl in
    check_outcomes (msg "static" sc) o1 o2;
    check_ledger_routed (msg "static" sc) s1;
    if sc.Test_props.sc_variant = Slrh.V2 && drained_twice s1 then incr drains
  done;
  for i = 0 to 9 do
    let sc = ledger_scenario (60 + i) in
    let wl = Test_props.workload sc in
    let events = sample_events (60 + i) wl in
    let o1, s1 = run_churn ~mode ~ledger:true sc wl events in
    let o2, _ = run_churn ~mode ~ledger:false sc wl events in
    check_engine (msg "churn" sc) o1 o2;
    check_ledger_routed (msg "churn" sc) s1;
    if sc.Test_props.sc_variant = Slrh.V2 && drained_twice s1 then incr drains
  done;
  if !drains = 0 then
    Alcotest.fail "no SLRH-2 ledger pair drained two commits from one pool"

(* Online dual ascent under both modes: weight updates mid-run must not
   break rescan/soa equality — pool membership and the cached
   parent bounds never read the weights, and scoring re-reads them per
   call, so identical commit sequences produce identical subgradients and
   hence identical multiplier trajectories. A fresh controller per run:
   [Adapt.t] is mutable state and must never be shared across modes. *)
let adaptive_spec =
  { Adapt.default_spec with Adapt.step_c = 1.5; prob = Some 0.9; sigma = 0.2 }

let with_adapt (p : Slrh.params) =
  {
    p with
    Slrh.adapt = Some (Adapt.create adaptive_spec p.Slrh.weights);
    feas_mode = Adapt.feas_mode adaptive_spec;
  }

let run_adaptive_static ~mode ~ledger sc wl =
  let sink = sink_for ~mode ~ledger in
  let p = with_adapt { (Test_props.params sc) with Slrh.mode; obs = sink } in
  (Slrh.run p wl, sink)

let test_adaptive_static mode () =
  let updates = ref 0 in
  for i = 0 to 39 do
    let sc = Test_props.scenario i in
    let wl = Test_props.workload sc in
    let o1, s1 = run_adaptive_static ~mode:`Rescan ~ledger:false sc wl in
    let o2, s2 = run_adaptive_static ~mode ~ledger:false sc wl in
    let msg =
      Fmt.str "%s + dual ascent vs %s" (Test_props.describe sc) (mode_name mode)
    in
    check_outcomes msg o1 o2;
    check_sinks msg s1 s2;
    updates := !updates + counter_of s2 "lagrange/updates"
  done;
  if !updates = 0 then
    Alcotest.fail "no dual round ever ran across 40 adaptive scenarios"

let test_adaptive_churn mode () =
  for i = 0 to 19 do
    let sc = Test_props.scenario i in
    let wl = Test_props.workload sc in
    let events = sample_events i wl in
    let run mode =
      let sink = sink_for ~mode ~ledger:false in
      let p = with_adapt { (Test_props.params sc) with Slrh.mode; obs = sink } in
      (Dynamic.run_churn p wl events, sink)
    in
    let o1, s1 = run `Rescan in
    let o2, s2 = run mode in
    let msg =
      Fmt.str "%s + dual ascent + %d churn events vs %s" (Test_props.describe sc)
        (List.length events) (mode_name mode)
    in
    check_engine msg o1 o2;
    check_sinks msg s1 s2
  done

(* And the adaptive ledger runs: a dual round reads only the commits, so
   equal commit sequences pin equal multiplier trajectories (the digest
   oracle pins the Multiplier entries' bytes). *)
let test_adaptive_ledger mode () =
  for i = 0 to 9 do
    let sc = ledger_scenario (30 + i) in
    let wl = Test_props.workload sc in
    let o1, s1 = run_adaptive_static ~mode ~ledger:true sc wl in
    let o2, _ = run_adaptive_static ~mode ~ledger:false sc wl in
    let msg =
      Fmt.str "%s + dual ascent, ledger run vs %s" (Test_props.describe sc) (mode_name mode)
    in
    check_outcomes msg o1 o2;
    check_ledger_routed msg s1
  done

(* Campaign sharding: aggregates and counter totals are shard-count
   invariant (1, 3 — uneven blocks — and 4 shards over 6 replicates), for
   the churn campaign and the traffic campaign alike. *)
let counters_only sink =
  Sink.metrics sink
  |> List.filter_map (fun (n, m) ->
         match m with Registry.Counter c -> Some (n, c) | _ -> None)
  |> List.sort compare

let test_campaign_shards () =
  let config = Agrid_exper.Config.smoke ~seed:99 () in
  let run shards =
    let sink = Sink.create ~stride:8 () in
    let levels =
      Agrid_exper.Campaign.run ~obs:sink ~intensities:[ 0.0; 2.0 ]
        ~replicates:6 ~shards ~seed:515 config
    in
    (levels, sink)
  in
  let l1, s1 = run 1 in
  List.iter
    (fun shards ->
      let ln, sn = run shards in
      if l1 <> ln then
        Alcotest.failf "campaign levels diverge between 1 and %d shards" shards;
      Alcotest.(check (list (pair string int)))
        (Fmt.str "campaign counters, 1 vs %d shards" shards)
        (counters_only s1) (counters_only sn))
    [ 3; 4 ];
  let module Traffic = Agrid_tenant.Traffic in
  let module Tenant = Agrid_tenant.Tenant in
  let spec =
    Traffic.make_spec ~seed:515 ~horizon:400
      [
        {
          Traffic.ts_tenant = Tenant.make ~priority:Tenant.High "gold";
          ts_process = Agrid_tenant.Arrivals.Poisson 0.005;
        };
        {
          Traffic.ts_tenant = Tenant.make ~priority:Tenant.Low ~energy_quota:100. "bronze";
          ts_process = Agrid_tenant.Arrivals.Poisson 0.005;
        };
      ]
  in
  let run_traffic shards =
    let sink = Sink.create ~stride:8 () in
    (Agrid_exper.Campaign.run_traffic ~obs:sink ~replicates:6 ~shards spec, sink)
  in
  let t1, s1 = run_traffic 1 in
  if
    List.for_all
      (fun t -> t.Agrid_exper.Campaign.t_mean_completed = 0.)
      t1.Agrid_exper.Campaign.ts_tenants
  then Alcotest.fail "traffic campaign completed no application";
  List.iter
    (fun shards ->
      let tn, sn = run_traffic shards in
      if t1 <> tn then
        Alcotest.failf "traffic campaign summary diverges between 1 and %d shards" shards;
      Alcotest.(check (list (pair string int)))
        (Fmt.str "traffic campaign counters, 1 vs %d shards" shards)
        (counters_only s1) (counters_only sn))
    [ 3; 4 ]

(* The adaptive campaign seeds a fresh dual-ascent controller per
   replicate, so its aggregates must be just as shard-invariant. *)
let test_campaign_shards_adaptive () =
  let config = Agrid_exper.Config.smoke ~seed:99 () in
  let run shards =
    let sink = Sink.create ~stride:8 () in
    let levels =
      Agrid_exper.Campaign.run ~obs:sink ~adapt:adaptive_spec
        ~intensities:[ 0.0; 2.0 ] ~replicates:4 ~shards ~seed:515 config
    in
    (levels, sink)
  in
  let l1, s1 = run 1 in
  let l3, s3 = run 3 in
  if l1 <> l3 then
    Alcotest.fail "adaptive campaign levels diverge between 1 and 3 shards";
  Alcotest.(check (list (pair string int)))
    "adaptive campaign counters, 1 vs 3 shards" (counters_only s1)
    (counters_only s3);
  if counter_of s1 "lagrange/updates" = 0 then
    Alcotest.fail "adaptive campaign never ran a dual round"

(* Partially built schedules for the property below: run the real
   scheduler with a cancel hook that trips after [steps] timestep polls,
   yielding a prefix of a genuine SLRH trajectory — mid-run mapped/ready
   frontiers, not synthetic ones. *)
let partial_schedule sc wl steps =
  let polls = ref 0 in
  let p =
    {
      (Test_props.params sc) with
      Slrh.cancel =
        (fun () ->
          incr polls;
          !polls > steps);
    }
  in
  (Slrh.run p wl).Slrh.schedule

(* The SoA core's unit-level contract, as a property: one
   [Objective.score_into] batch pass over a freshly filtered pool equals
   the per-candidate [Objective.best_version] fold bit for bit — every
   slot, every machine, on arbitrary run prefixes and
   arbitrary [now]. [initial_capacity:2] forces the arena through
   several regrowths mid-fill, so the fresh-arrays-no-copy regrowth is
   exercised under scoring, not just in the unit tests. *)
let qcheck_batch_equals_fold =
  Testlib.qcheck_case ~count:60
    "score_into batch = best_version fold (bitwise)"
    QCheck2.Gen.(triple (int_bound 29) (int_bound 40) (int_bound 199))
    (fun (i, steps, now) ->
      let sc = Test_props.scenario i in
      let wl = Test_props.workload sc in
      let sched = partial_schedule sc wl steps in
      let w = (Test_props.params sc).Slrh.weights in
      let a =
        Pool.Flat.create ~initial_capacity:2
          ~feas_mode:Feasibility.Conservative wl
      in
      for machine = 0 to Workload.n_machines wl - 1 do
        let row = a.Pool.Flat.rows.(machine) in
        let n =
          Feasibility.filter_into ~obs:Agrid_obs.Sink.noop a.Pool.Flat.memo
            sched ~machine ~eligible:(fun _ -> true)
            ~dst:(Pool.Flat.ensure a row (Schedule.n_ready sched))
            { Feasibility.admitted = 0; checked = 0 }
        in
        Objective.score_into w sched ~machine ~now ~n
          ~tasks:row.Pool.Flat.tasks ~bound_ready:a.Pool.Flat.bound_ready
          ~bound_comm:a.Pool.Flat.bound_comm ~bound_known:a.Pool.Flat.bound_known
          ~versions:row.Pool.Flat.versions ~scores:row.Pool.Flat.scores;
        for slot = 0 to n - 1 do
          let task = row.Pool.Flat.tasks.(slot) in
          let v, s = Objective.best_version w sched ~task ~machine ~now in
          if row.Pool.Flat.versions.(slot) <> v then
            QCheck2.Test.fail_reportf
              "%s, %d steps, now=%d: machine %d task %d: batch picked %s, fold %s"
              (Test_props.describe sc) steps now machine task
              (Version.to_string row.Pool.Flat.versions.(slot))
              (Version.to_string v);
          if
            Int64.bits_of_float row.Pool.Flat.scores.(slot)
            <> Int64.bits_of_float s
          then
            QCheck2.Test.fail_reportf
              "%s, %d steps, now=%d: machine %d task %d: batch score %h, fold %h"
              (Test_props.describe sc) steps now machine task
              row.Pool.Flat.scores.(slot) s
        done
      done;
      true)

(* ---- multi-tenant traffic differential pairs ----

   The traffic engine multiplexes several live applications over one
   commit loop, each on its own pool state; the pool-maintenance mode of
   every application's scheduler must remain invisible in the merged
   outcome. Same oracle discipline as the single-run pairs: rescan is
   the reference, each optimised mode must match bit for bit — arrival
   admissions, per-app verdicts, TECs, per-tenant rollups, fairness
   accounting — on static, churn and adaptive-lagrange traffic. *)

module Traffic = Agrid_tenant.Traffic
module Tenant = Agrid_tenant.Tenant

let traffic_weights = Objective.make_weights ~alpha:0.4 ~beta:0.3

let traffic_params ~mode ~adaptive ~tenant:_ ~seq:_ =
  let p = { (Slrh.default_params traffic_weights) with Slrh.mode } in
  (* a fresh controller per application: Adapt.t is mutable run state *)
  if adaptive then with_adapt p else p

let traffic_spec ~seed ~events =
  let spec =
    Traffic.make_spec ~seed ~horizon:1600
      [
        {
          Traffic.ts_tenant = Tenant.make ~priority:Tenant.High "gold";
          (* two simultaneous arrivals force the chunked multi-app path *)
          ts_process = Agrid_tenant.Arrivals.Trace [ 0; 0 ];
        };
        {
          Traffic.ts_tenant =
            Tenant.make ~priority:Tenant.Low ~energy_quota:400. "bronze";
          ts_process = Agrid_tenant.Arrivals.Poisson 0.002;
        };
      ]
  in
  { spec with Traffic.events }

let served_bits (o : Traffic.outcome) =
  List.map
    (fun (a : Traffic.app) ->
      match a.Traffic.a_verdict with
      | Traffic.Served s -> (bits s.Traffic.s_tec, bits s.Traffic.s_reservation)
      | Traffic.Rejected _ -> (0L, 0L))
    o.Traffic.apps

let rollup_bits (o : Traffic.outcome) =
  List.map
    (fun (r : Traffic.rollup) -> (bits r.Traffic.r_tec, bits r.Traffic.r_reserved))
    o.Traffic.rollups

let check_traffic msg (a : Traffic.outcome) (b : Traffic.outcome) =
  if a.Traffic.apps <> b.Traffic.apps then Alcotest.failf "%s: apps diverge" msg;
  if a.Traffic.rollups <> b.Traffic.rollups then
    Alcotest.failf "%s: rollups diverge" msg;
  if served_bits a <> served_bits b then
    Alcotest.failf "%s: per-app TEC/reservation diverges bitwise" msg;
  if rollup_bits a <> rollup_bits b then
    Alcotest.failf "%s: rollup TEC/reservation diverges bitwise" msg;
  if bits a.Traffic.fairness_gap <> bits b.Traffic.fairness_gap then
    Alcotest.failf "%s: fairness gap diverges bitwise" msg;
  Alcotest.(check int) (msg ^ ": rounds") a.Traffic.rounds b.Traffic.rounds;
  Alcotest.(check int)
    (msg ^ ": total steps") a.Traffic.total_steps b.Traffic.total_steps;
  Alcotest.(check int)
    (msg ^ ": final time") a.Traffic.final_time b.Traffic.final_time

let traffic_events_variants =
  [
    ("static", []);
    ("churn", Agrid_churn.Event.parse_trace "leave@120:1,rejoin@1400:1");
  ]

let test_traffic ~adaptive mode () =
  let admitted = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (shape, events) ->
          let spec = traffic_spec ~seed ~events in
          let run m =
            Traffic.run ~params_for:(traffic_params ~mode:m ~adaptive) spec
          in
          let a = run `Rescan and b = run mode in
          check_traffic
            (Fmt.str "traffic %s seed %d, rescan vs %s%s" shape seed
               (mode_name mode)
               (if adaptive then " (adaptive)" else ""))
            a b;
          List.iter
            (fun (r : Traffic.rollup) -> admitted := !admitted + r.Traffic.r_admitted)
            a.Traffic.rollups)
        traffic_events_variants)
    [ 3; 2004 ];
  (* the pairs must exercise real admissions, not vacuously pass *)
  if !admitted = 0 then
    Alcotest.failf "traffic pairs admitted no application (%s)" (mode_name mode)

let suites =
  let per_mode =
    List.concat_map
      (fun mode ->
        let m = mode_name mode in
        [
          Alcotest.test_case
            (Fmt.str "rescan = %s on static scenarios (150)" m)
            `Slow (test_static mode);
          Alcotest.test_case
            (Fmt.str "rescan = %s on churn timelines (60)" m)
            `Slow (test_churn mode);
          Alcotest.test_case
            (Fmt.str "battery shock mid-pool-epoch invalidates reuse (%s)" m)
            `Slow
            (test_battery_shock_mid_epoch mode);
          Alcotest.test_case
            (Fmt.str "ledger run commits = %s (20 runs)" m)
            `Slow (test_ledger mode);
          Alcotest.test_case
            (Fmt.str "rescan = %s under dual ascent (40 static)" m)
            `Slow
            (test_adaptive_static mode);
          Alcotest.test_case
            (Fmt.str "rescan = %s under dual ascent (20 churn)" m)
            `Slow
            (test_adaptive_churn mode);
          Alcotest.test_case
            (Fmt.str "adaptive ledger run commits = %s" m)
            `Slow
            (test_adaptive_ledger mode);
          Alcotest.test_case
            (Fmt.str "rescan = %s on multi-tenant traffic (static + churn)" m)
            `Slow
            (test_traffic ~adaptive:false mode);
          Alcotest.test_case
            (Fmt.str "rescan = %s on adaptive-lagrange traffic" m)
            `Slow
            (test_traffic ~adaptive:true mode);
        ])
      fast_modes
  in
  [
    ( "diff",
      per_mode
      @ [
          Alcotest.test_case "soa fast path (no tracer/ledger) = rescan" `Slow
            test_static_fast_path;
          qcheck_batch_equals_fold;
          Alcotest.test_case "campaign aggregates shard-count invariant" `Slow
            test_campaign_shards;
          Alcotest.test_case "adaptive campaign shard-count invariant" `Slow
            test_campaign_shards_adaptive;
        ] );
  ]
