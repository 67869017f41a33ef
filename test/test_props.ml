(* Property-based invariant suite (no external fuzzer: scenarios are
   drawn from the in-tree Splitmix64 generator, so every failure is
   reproducible from its scenario index alone).

   Each scenario is a random small grid/DAG/weight configuration run
   through the full SLRH loop; the properties are the paper's structural
   contracts, checked on the raw placement/transfer arrays by
   [Validate.check] rather than trusted from the scheduler's own
   counters:

   - no subtask starts before its parents finish (and cross-machine
     parents ship their data first);
   - no machine's energy ledger ever goes negative;
   - a run reported complete-and-timely has AET <= tau;
   - T100 + T10 + unmapped partitions the task set exactly;
   - scaling every battery up never lowers T100 on the same seed
     (monotonicity of the feasibility filter in available energy). *)

open Agrid_core
open Agrid_sched
open Agrid_workload
module Rng = Agrid_prng.Splitmix64

type scenario = {
  sc_index : int;
  sc_seed : int;  (** workload spec seed *)
  sc_case : Agrid_platform.Grid.case;
  sc_etc : int;
  sc_dag : int;
  sc_alpha : float;
  sc_beta : float;
  sc_variant : Slrh.variant;
  sc_delta_t : int;
  sc_horizon : int;
}

let pick rng l = List.nth l (Rng.next_int rng (List.length l))

(* Derive every scenario from its index so a failing case can be re-run
   in isolation. *)
let scenario i =
  let rng = Rng.of_int (0x9703 + (i * 7919)) in
  let alpha = 0.05 +. (0.9 *. Rng.next_unit_float rng) in
  let beta = (1. -. alpha) *. Rng.next_unit_float rng in
  {
    sc_index = i;
    sc_seed = 100 + Rng.next_int rng 10_000;
    sc_case = pick rng [ Agrid_platform.Grid.A; Agrid_platform.Grid.B; Agrid_platform.Grid.C ];
    sc_etc = Rng.next_int rng 3;
    sc_dag = Rng.next_int rng 3;
    sc_alpha = alpha;
    sc_beta = Float.max 0.01 beta;
    sc_variant = pick rng [ Slrh.V1; Slrh.V1; Slrh.V2; Slrh.V3 ];
    sc_delta_t = pick rng [ 5; 10; 20 ];
    sc_horizon = pick rng [ 50; 100; 200 ];
  }

let workload ?battery_scale sc =
  let spec = Testlib.small_spec ~seed:sc.sc_seed () in
  let spec =
    match battery_scale with
    | None -> spec
    | Some s -> { spec with Spec.battery_scale = s *. spec.Spec.battery_scale }
  in
  Workload.build spec ~etc_index:sc.sc_etc ~dag_index:sc.sc_dag ~case:sc.sc_case

let params sc =
  let weights = Objective.make_weights ~alpha:sc.sc_alpha ~beta:sc.sc_beta in
  {
    (Slrh.default_params ~variant:sc.sc_variant weights) with
    Slrh.delta_t = sc.sc_delta_t;
    horizon = sc.sc_horizon;
  }

let describe sc =
  let case =
    match sc.sc_case with
    | Agrid_platform.Grid.A -> "A"
    | Agrid_platform.Grid.B -> "B"
    | Agrid_platform.Grid.C -> "C"
  in
  Fmt.str
    "scenario %d (seed %d, case %s, etc %d, dag %d, a=%.3f b=%.3f, dt=%d H=%d)"
    sc.sc_index sc.sc_seed case sc.sc_etc sc.sc_dag sc.sc_alpha sc.sc_beta
    sc.sc_delta_t sc.sc_horizon

(* One scenario, all per-run invariants. *)
let check_invariants sc =
  let wl = workload sc in
  let o = Slrh.run (params sc) wl in
  let sched = o.Slrh.schedule in
  let r = Validate.check sched in
  (* structural: precedence (parents before children, transfers in
     between), no exec or channel overlap — rebuilt from raw placements *)
  (match r.Validate.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: structural violation: %s" (describe sc) v);
  (* energy: the paper's filter only guarantees that the SECONDARY
     version of each candidate fits the battery remaining at admission
     time — committing the primary version, or child-communication
     charged to the source machine after later placements, may overdraw
     (the churn suite tolerates this explicitly). What must always hold
     is ledger consistency: the schedule's per-machine energy account
     equals execution plus outgoing transfer energy recomputed from the
     raw placement and transfer arrays, and [Validate.energy_ok] is
     exactly the "no battery overdrawn" predicate over that account. *)
  let n_machines = Workload.n_machines wl in
  let recomputed = Array.make n_machines 0. in
  for task = 0 to Workload.n_tasks wl - 1 do
    match Schedule.placement sched task with
    | None -> ()
    | Some p ->
        recomputed.(p.Schedule.machine) <-
          recomputed.(p.Schedule.machine)
          +. Workload.exec_energy wl ~task ~machine:p.Schedule.machine
               ~version:p.Schedule.version
  done;
  Array.iter
    (fun (tr : Schedule.transfer) ->
      recomputed.(tr.Schedule.src) <-
        recomputed.(tr.Schedule.src) +. tr.Schedule.energy)
    (Schedule.transfers sched);
  let overdrawn = ref false in
  for j = 0 to n_machines - 1 do
    let used = Schedule.energy_used sched j in
    let battery = Schedule.energy_remaining sched j +. used in
    Testlib.close_rel ~rel:1e-9
      (Fmt.str "%s: machine %d energy ledger" (describe sc) j)
      recomputed.(j) used;
    if used > battery +. (1e-9 *. battery) then overdrawn := true
  done;
  Alcotest.(check bool)
    (describe sc ^ ": energy_ok = no battery overdrawn")
    (not !overdrawn) r.Validate.energy_ok;
  (* deadline: completed-and-timely implies AET <= tau *)
  if o.Slrh.completed && r.Validate.time_ok then
    Alcotest.(check bool)
      (describe sc ^ ": AET <= tau")
      true
      (Schedule.aet sched <= Workload.tau wl);
  if Validate.feasible r && Schedule.aet sched > Workload.tau wl then
    Alcotest.failf "%s: feasible report but AET %d > tau %d" (describe sc)
      (Schedule.aet sched) (Workload.tau wl);
  (* partition: T100 + T10 + unmapped = |T|, recounted from placements *)
  let t100 = ref 0 and t10 = ref 0 and unmapped = ref 0 in
  for task = 0 to Workload.n_tasks wl - 1 do
    match Schedule.placement sched task with
    | None -> incr unmapped
    | Some p -> (
        match p.Schedule.version with
        | Version.Primary -> incr t100
        | Version.Secondary -> incr t10)
  done;
  Alcotest.(check int)
    (describe sc ^ ": T100+T10+unmapped = |T|")
    (Workload.n_tasks wl)
    (!t100 + !t10 + !unmapped);
  Alcotest.(check int)
    (describe sc ^ ": T100 recount matches Schedule.n_primary")
    (Schedule.n_primary sched) !t100;
  if o.Slrh.completed && !unmapped > 0 then
    Alcotest.failf "%s: completed run left %d tasks unmapped" (describe sc)
      !unmapped;
  if o.Slrh.completed <> Schedule.all_mapped sched then
    Alcotest.failf "%s: completed flag disagrees with the placement array"
      (describe sc)

let test_invariants () =
  for i = 0 to 59 do
    check_invariants (scenario i)
  done

(* Monotonicity: doubling every battery can only relax the secondary
   energy bound, so on the same seed and weights the number of primary
   versions mapped never drops. *)
let test_battery_monotonicity () =
  for i = 0 to 29 do
    let sc = scenario i in
    let run scale =
      let o = Slrh.run (params sc) (workload ?battery_scale:scale sc) in
      Schedule.n_primary o.Slrh.schedule
    in
    let base = run None and doubled = run (Some 2.0) in
    if doubled < base then
      Alcotest.failf "%s: doubling batteries lowered T100 (%d -> %d)"
        (describe sc) base doubled
  done

(* ---- the total-work bound at the scenario boundary ----

   [Workload.build] refuses a scenario whose total work (each task at its
   largest cycle count, each edge at its slowest transfer, plus tau)
   exceeds 2^61 cycles, so no schedule's arithmetic can wrap an int. A
   near-bound scenario scales a generated one's ETC, tau and batteries
   by one factor until the total work is [fraction] of the bound. *)

let near_bound_workload ~seed ~fraction =
  let spec = Testlib.small_spec ~seed () in
  let etc = Workload.etc_for_spec spec ~etc_index:0 in
  let n = Agrid_etc.Etc.n_tasks etc and m = Agrid_etc.Etc.n_machines etc in
  let worst i = Array.fold_left Float.max 0. (Agrid_etc.Etc.row etc i) in
  let work_s = ref spec.Spec.tau_seconds in
  for i = 0 to n - 1 do
    work_s := !work_s +. worst i
  done;
  let k =
    fraction *. Float.ldexp 1. 61 /. float_of_int Agrid_platform.Units.cycles_per_second
    /. !work_s
  in
  let scaled =
    Agrid_etc.Etc.of_matrix ~klasses:(Agrid_etc.Etc.klasses etc)
      (Array.init n (fun task ->
           Array.init m (fun machine -> k *. Agrid_etc.Etc.seconds etc ~task ~machine)))
  in
  let spec =
    {
      spec with
      Spec.tau_seconds = k *. spec.Spec.tau_seconds;
      battery_scale = k *. spec.Spec.battery_scale;
    }
  in
  Workload.build spec ~etc:scaled ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A

let total_work_bound_prop =
  Testlib.qcheck_case ~count:12 "total-work bound: near-bound scenarios schedule (qcheck)"
    QCheck2.Gen.(pair (int_range 1 1_000) (float_range 0.5 0.99))
    (fun (seed, fraction) ->
      let wl = near_bound_workload ~seed ~fraction in
      let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3 in
      let clean what sched =
        match (Validate.check sched).Validate.violations with
        | [] -> true
        | v :: _ ->
            QCheck2.Test.fail_reportf "%s (seed %d, %.3f of the bound): %s" what seed fraction v
      in
      clean "Greedy" (Agrid_baselines.Greedy.run wl).Agrid_baselines.Greedy.schedule
      && clean "Max-Max"
           (Agrid_baselines.Maxmax.run (Agrid_baselines.Maxmax.default_params weights) wl)
             .Agrid_baselines.Maxmax.schedule
      && List.for_all
           (fun variant ->
             clean
               (Slrh.variant_to_string variant)
               (Slrh.run (Slrh.default_params ~variant weights) wl).Slrh.schedule)
           [ Slrh.V1; Slrh.V2; Slrh.V3 ])

let test_total_work_refused () =
  let refused = Invalid_argument "Workload.build: total work exceeds 2^61 cycles" in
  Alcotest.check_raises "past the bound" refused (fun () ->
      ignore (near_bound_workload ~seed:3 ~fraction:1.01));
  (* the re-anchor case: a pinned text with every ETC entry at 1e17 s
     (1e18 cycles, each of which fits an int) loaded, and Greedy's running
     finish then wrapped into Timeline.insert's interval guard *)
  let text =
    Serialize.to_string (Spec.scaled ~seed:2004 ~factor:0.03 ()) ~etc_index:0 ~dag_index:0
      ~case:Agrid_platform.Grid.A
  in
  (* every row after the "etc" header, up to the next non-numeric line *)
  let rec rewrite in_etc = function
    | [] -> []
    | l :: rest when String.length l >= 4 && String.sub l 0 4 = "etc " -> l :: rewrite true rest
    | l :: rest when in_etc && l <> "" && (match l.[0] with '0' .. '9' -> true | _ -> false) ->
        let cols = List.length (String.split_on_char ' ' l) in
        String.concat " " (List.init cols (fun _ -> "1e17")) :: rewrite true rest
    | l :: rest -> l :: rewrite false rest
  in
  let pinned = String.concat "\n" (rewrite false (String.split_on_char '\n' text)) in
  Alcotest.(check bool) "ETC entries rewritten" true
    (Testlib.contains pinned "1e17 1e17 1e17 1e17");
  Alcotest.check_raises "1e17 s ETC entries" refused (fun () ->
      ignore (Serialize.realize (Serialize.Pinned pinned)));
  let job = Agrid_serve.Job.default (Serialize.Pinned pinned) in
  (match (Agrid_serve.Job.run job).Agrid_serve.Job.status with
  | Agrid_serve.Job.Errored msg ->
      Alcotest.(check bool) ("served job names the bound: " ^ msg) true (Testlib.contains msg "2^61")
  | _ -> Alcotest.fail "a pinned text past the bound was not answered errored")

let suites =
  [
    ( "props",
      [
        Alcotest.test_case "slrh invariants over 60 random scenarios" `Slow
          test_invariants;
        Alcotest.test_case "battery monotonicity over 30 scenarios" `Slow
          test_battery_monotonicity;
        total_work_bound_prop;
        Alcotest.test_case "total-work bound refuses past 2^61" `Quick
          test_total_work_refused;
      ] );
  ]
