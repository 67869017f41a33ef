(* The tenant-invariant test layer (DESIGN.md section 14):

   - arrival processes are deterministic per seed and totally ordered;
   - quota admission is total (every rejection carries a typed breach)
     and the reservation really is an upper bound on the TEC a run can
     consume, so an admitted application can never overdraw its tenant;
   - DRR keeps every continuously backlogged queue's weighted share
     within one quantum of the round ideal over any window, including
     churn timelines where queues empty and refill (QCheck, 220 cases);
   - the engine's constant-cost case (every grant costs one quantum)
     has exactly zero weighted-share gap at round boundaries;
   - a single-tenant traffic run is bit-identical (tec bits, placements,
     transfers) to the standalone [Slrh.run] on the same workload;
   - a fixed-seed two-tenant Poisson run exports byte-identical obs
     JSONL across runs. *)

open Agrid_core
open Agrid_sched
open Agrid_tenant
module Rng = Agrid_prng.Splitmix64

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3

(* --- arrivals ---------------------------------------------------------- *)

let procs_of_seed seed =
  let rng = Rng.of_int (0xA331 + seed) in
  List.init
    (1 + Rng.next_int rng 4)
    (fun _ ->
      if Rng.next_bool rng then
        Arrivals.Poisson (0.0005 +. (0.01 *. Rng.next_unit_float rng))
      else
        Arrivals.Trace (List.init (Rng.next_int rng 6) (fun _ -> Rng.next_int rng 2000)))

let test_arrival_determinism () =
  for seed = 0 to 30 do
    let procs = procs_of_seed seed in
    let horizon = 1500 in
    let a = Arrivals.generate ~seed ~horizon procs in
    let b = Arrivals.generate ~seed ~horizon procs in
    if a <> b then Alcotest.failf "seed %d: two generations differ" seed;
    (* total order and bounds *)
    List.iter
      (fun { Arrivals.at; stream; seq } ->
        if at < 0 || at > horizon then
          Alcotest.failf "seed %d: arrival at %d outside [0, %d]" seed at horizon;
        if stream < 0 || stream >= List.length procs then
          Alcotest.failf "seed %d: stream %d out of range" seed stream;
        if seq < 0 then Alcotest.failf "seed %d: negative seq" seed)
      a;
    let rec sorted = function
      | x :: (y :: _ as rest) ->
          if
            compare
              (x.Arrivals.at, x.Arrivals.stream, x.Arrivals.seq)
              (y.Arrivals.at, y.Arrivals.stream, y.Arrivals.seq)
            >= 0
          then Alcotest.failf "seed %d: merged timeline not strictly sorted" seed
          else sorted rest
      | _ -> ()
    in
    sorted a;
    (* per-stream seqs are dense and times nondecreasing *)
    List.iteri
      (fun stream _ ->
        let mine = List.filter (fun x -> x.Arrivals.stream = stream) a in
        List.iteri
          (fun i x ->
            if x.Arrivals.seq <> i then
              Alcotest.failf "seed %d stream %d: seq gap at %d" seed stream i)
          mine;
        let rec nondecr = function
          | x :: (y :: _ as rest) ->
              if x.Arrivals.at > y.Arrivals.at then
                Alcotest.failf "seed %d stream %d: times decrease" seed stream
              else nondecr rest
          | _ -> ()
        in
        nondecr mine)
      procs
  done

let test_arrival_validation () =
  let bad p = match Arrivals.validate_process ~horizon:1000 p with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "process %s should not validate" (Arrivals.process_to_string p)
  in
  bad (Arrivals.Poisson 0.);
  bad (Arrivals.Poisson (-1.));
  bad (Arrivals.Poisson nan);
  bad (Arrivals.Poisson 1e6);
  bad (Arrivals.Trace [ 3; -1 ]);
  match Arrivals.validate_process ~horizon:1000 (Arrivals.Poisson 0.01) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid rate rejected: %s" m

(* --- quotas ------------------------------------------------------------ *)

let test_quota_totality () =
  let wl = Testlib.small_workload () in
  let budgets = [ None; Some 1e-6; Some 0.5; Some 1e9 ] in
  let machine_qs = [ None; Some 0; Some 1; Some 2; Some 100 ] in
  List.iter
    (fun q_energy ->
      List.iter
        (fun q_machines ->
          let q = { Feasibility.q_energy; q_machines } in
          List.iter
            (fun used ->
              match Feasibility.admit_quota q ~used wl with
              | Ok r ->
                  if not (Float.is_finite r && r >= 0.) then
                    Alcotest.failf "reservation not finite-nonnegative: %g" r
              | Error (Feasibility.Energy_quota { needed; budget; used = u }) ->
                  if not (u +. needed > budget) then
                    Alcotest.failf "energy breach fields inconsistent"
              | Error (Feasibility.Machine_quota { allowed; required }) ->
                  if allowed >= required then
                    Alcotest.failf "machine breach fields inconsistent")
            [ 0.; 0.25; 17. ])
        machine_qs)
    budgets;
  (* a zero-machine quota is the one machine-breach case *)
  (match
     Feasibility.admit_quota { Feasibility.q_energy = None; q_machines = Some 0 }
       ~used:0. wl
   with
  | Error (Feasibility.Machine_quota _) -> ()
  | _ -> Alcotest.fail "zero-machine quota must breach Machine_quota");
  (* validation rejects degenerate quotas before they reach admission *)
  (match Feasibility.validate_quota { Feasibility.q_energy = Some 0.; q_machines = None } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero energy quota must not validate");
  match Feasibility.validate_quota { Feasibility.q_energy = None; q_machines = Some (-1) } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative machine quota must not validate"

(* The reservation admit_quota charges really bounds what a run burns:
   TEC of a full SLRH run never exceeds the conservative reservation. *)
let test_reservation_bounds_tec () =
  for i = 0 to 11 do
    let seed = 100 + (17 * i) in
    let case =
      List.nth [ Agrid_platform.Grid.A; Agrid_platform.Grid.B; Agrid_platform.Grid.C ] (i mod 3)
    in
    let wl = Testlib.small_workload ~seed ~case () in
    let r = Feasibility.reservation wl in
    let o = Slrh.run (Slrh.default_params weights) wl in
    let tec = Schedule.tec o.Slrh.schedule in
    if tec > r +. 1e-9 then
      Alcotest.failf "scenario %d: TEC %.6f exceeds reservation %.6f" i tec r
  done

(* --- DRR fairness ------------------------------------------------------ *)

(* One simulated DRR history: queues with scripted backlog toggles
   (churn) and random per-item costs <= quantum. At every round boundary,
   any queue continuously backlogged since the previous boundary must
   hold its weighted share within one quantum of the round ideal. *)
let drr_case_gen =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* quantum = float_range 1. 20. in
    let* weights = list_repeat n (int_range 1 4) in
    let* seed = int_range 0 1_000_000 in
    let* toggles = int_range 0 12 in
    return (n, quantum, weights, seed, toggles))

let drr_prop (n, quantum, wts, seed, toggles) =
  let rng = Rng.of_int seed in
  let weights = Array.of_list (List.map float_of_int wts) in
  let t = Drr.create ~quantum ~weights in
  (* backlog script: queue i is "up" (backlogged) or "down"; starts up *)
  let up = Array.make n true in
  let toggle_at = Array.init toggles (fun _ -> 20 + Rng.next_int rng 400) in
  Array.sort compare toggle_at;
  let next_toggle = ref 0 in
  let snap_served = Array.make n 0. in
  let snap_rounds = ref 0 in
  let cont = Array.make n true in
  let serves = 500 in
  for step = 0 to serves - 1 do
    while !next_toggle < toggles && toggle_at.(!next_toggle) <= step do
      let i = Rng.next_int rng n in
      up.(i) <- not up.(i);
      incr next_toggle
    done;
    (* keep at least one queue backlogged so select can serve *)
    if not (Array.exists (fun b -> b) up) then up.(Rng.next_int rng n) <- true;
    Array.iteri (fun i u -> if not u then cont.(i) <- false) up;
    let cost = quantum *. (0.1 +. (0.9 *. Rng.next_unit_float rng)) in
    (match Drr.select t ~backlogged:(fun i -> up.(i)) ~cost with
    | None -> Alcotest.fail "select returned None with a backlogged queue"
    | Some i -> if not up.(i) then Alcotest.fail "served an empty queue");
    if Drr.rounds t > !snap_rounds then begin
      let window_rounds = Drr.rounds t - !snap_rounds in
      let ideal = float_of_int window_rounds *. quantum in
      for i = 0 to n - 1 do
        if cont.(i) && up.(i) then begin
          let share = (Drr.boundary_served t i -. snap_served.(i)) /. weights.(i) in
          if Float.abs (share -. ideal) > quantum +. 1e-6 then
            Alcotest.failf
              "queue %d (w=%g): window share %.3f deviates from ideal %.3f by more \
               than one quantum %.3f"
              i weights.(i) share ideal quantum
        end
      done;
      snap_rounds := Drr.rounds t;
      Array.iteri (fun i _ -> snap_served.(i) <- Drr.boundary_served t i) snap_served;
      Array.iteri (fun i u -> cont.(i) <- u) up
    end
  done;
  true

let test_drr_fairness () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:220 ~name:"drr window fairness under churn" drr_case_gen
       drr_prop)

(* The engine's case: every grant costs exactly one quantum, and both
   quantum (a timestep count) and weights are integer-valued floats, so
   deficit arithmetic is exact and at round boundaries the weighted
   shares of always-backlogged queues are EQUAL (zero gap). *)
let test_drr_constant_cost_zero_gap () =
  let rng = Rng.of_int 0xD44 in
  for _case = 0 to 50 do
    let n = 2 + Rng.next_int rng 4 in
    let quantum = float_of_int (1 + Rng.next_int rng 10) in
    let weights = Array.init n (fun _ -> float_of_int (1 + Rng.next_int rng 4)) in
    let t = Drr.create ~quantum ~weights in
    let last_rounds = ref 0 in
    for _ = 0 to 300 do
      (match Drr.select t ~backlogged:(fun _ -> true) ~cost:quantum with
      | None -> Alcotest.fail "select returned None with all queues backlogged"
      | Some _ -> ());
      if Drr.rounds t > !last_rounds then begin
        last_rounds := Drr.rounds t;
        let gap = Drr.weighted_gap t ~over:(fun _ -> true) in
        if gap > 1e-9 then
          Alcotest.failf "constant-cost gap %.3g nonzero at round %d" gap !last_rounds
      end
    done
  done

let test_drr_validation () =
  let inv f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  inv (fun () -> Drr.create ~quantum:0. ~weights:[| 1. |]);
  inv (fun () -> Drr.create ~quantum:4. ~weights:[||]);
  inv (fun () -> Drr.create ~quantum:4. ~weights:[| 0.5 |]);
  let t = Drr.create ~quantum:4. ~weights:[| 1.; 2. |] in
  inv (fun () -> Drr.select t ~backlogged:(fun _ -> true) ~cost:5.);
  inv (fun () -> Drr.select t ~backlogged:(fun _ -> true) ~cost:0.);
  match Drr.select t ~backlogged:(fun _ -> false) ~cost:1. with
  | None -> ()
  | Some _ -> Alcotest.fail "select on all-empty queues must return None"

(* --- traffic engine ---------------------------------------------------- *)

let scale = 48. /. 1024.

let one_tenant_spec ~seed ~mode =
  ignore mode;
  Traffic.make_spec ~scale ~seed ~horizon:10
    [ { Traffic.ts_tenant = Tenant.make "solo"; ts_process = Arrivals.Trace [ 0 ] } ]

let params_with ~mode = { (Slrh.default_params weights) with Slrh.mode }

(* Single-tenant traffic must be bit-identical to the standalone run:
   same placements, same transfers, same TEC bits. *)
let test_single_tenant_bit_identity () =
  List.iter
    (fun mode ->
      for i = 0 to 3 do
        let seed = 500 + (31 * i) in
        let spec = one_tenant_spec ~seed ~mode in
        let params = params_with ~mode in
        let out =
          Traffic.run ~params_for:(fun ~tenant:_ ~seq:_ -> params_with ~mode) spec
        in
        let direct = Slrh.run params (Traffic.app_workload spec ~stream:0 ~seq:0) in
        match out.Traffic.apps with
        | [ { Traffic.a_verdict = Traffic.Served s; _ } ] ->
            let bits f = Int64.bits_of_float f in
            if bits s.Traffic.s_tec <> bits (Schedule.tec direct.Slrh.schedule) then
              Alcotest.failf "seed %d %s: tec bits differ" seed
                (Slrh.mode_to_string mode);
            Alcotest.(check int)
              "t100" (Schedule.n_primary direct.Slrh.schedule) s.Traffic.s_t100;
            Alcotest.(check int)
              "aet" (Schedule.aet direct.Slrh.schedule) s.Traffic.s_aet;
            Alcotest.(check int) "final clock" direct.Slrh.final_clock s.Traffic.s_final_clock;
            Alcotest.(check bool) "completed" direct.Slrh.completed s.Traffic.s_completed;
            Alcotest.(check int)
              "mapped" (Schedule.n_mapped direct.Slrh.schedule) s.Traffic.s_mapped
        | _ -> Alcotest.failf "seed %d: expected exactly one served app" seed
      done)
    [ `Rescan; `Soa ]

let two_tenant_spec ~seed =
  Traffic.make_spec ~scale ~seed ~horizon:2000 ~chunk:8
    [
      {
        Traffic.ts_tenant = Tenant.make ~priority:Tenant.High "gold";
        ts_process = Arrivals.Poisson 0.002;
      };
      {
        Traffic.ts_tenant =
          Tenant.make ~priority:Tenant.Low ~energy_quota:1.5 "bronze";
        ts_process = Arrivals.Poisson 0.002;
      };
    ]

let test_two_tenant_invariants () =
  let spec = two_tenant_spec ~seed:2004 in
  let out = Traffic.run spec in
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Traffic.r_id ^ ": admitted+rejected=arrivals")
        r.Traffic.r_arrivals
        (r.Traffic.r_admitted + r.Traffic.r_rejected);
      if r.Traffic.r_completed > r.Traffic.r_admitted then
        Alcotest.failf "%s: completed > admitted" r.Traffic.r_id;
      if r.Traffic.r_id = "bronze" && r.Traffic.r_reserved > 1.5 +. 1e-9 then
        Alcotest.failf "bronze reserved %.3f exceeds quota 1.5" r.Traffic.r_reserved)
    out.Traffic.rollups;
  (* every bronze rejection (if any) is a typed energy breach *)
  List.iter
    (fun a ->
      match a.Traffic.a_verdict with
      | Traffic.Rejected (Feasibility.Energy_quota _) when a.Traffic.a_tenant = "bronze" -> ()
      | Traffic.Rejected b ->
          Alcotest.failf "%s rejected with unexpected breach %s" a.Traffic.a_tenant
            (Feasibility.quota_breach_to_string b)
      | Traffic.Served _ -> ())
    out.Traffic.apps;
  if out.Traffic.total_steps <= 0 then Alcotest.fail "no scheduler steps granted"

(* Byte-identical telemetry across two runs of the same spec — the
   acceptance criterion for deterministic multi-tenant campaigns. *)
let test_obs_byte_identity () =
  let export () =
    let sink = Agrid_obs.Sink.create () in
    ignore (Traffic.run ~obs:sink (two_tenant_spec ~seed:77));
    Agrid_obs.Export.to_jsonl sink
  in
  let a = export () and b = export () in
  Alcotest.(check string) "obs JSONL byte-identical" a b;
  if not (String.length a > 0) then Alcotest.fail "empty export"

(* A churn timeline (leave + rejoin) through the chunked engine: still
   deterministic, still total. *)
let test_traffic_with_churn () =
  let spec =
    Traffic.make_spec ~scale ~seed:9 ~horizon:1000 ~chunk:4
      ~events:(Agrid_churn.Event.parse_trace "leave@100:1,rejoin@2000:1")
      [
        { Traffic.ts_tenant = Tenant.make ~priority:Tenant.High "a";
          ts_process = Arrivals.Trace [ 0; 50 ] };
        { Traffic.ts_tenant = Tenant.make "b"; ts_process = Arrivals.Trace [ 0 ] };
      ]
  in
  let o1 = Traffic.run spec and o2 = Traffic.run spec in
  if o1.Traffic.apps <> o2.Traffic.apps then Alcotest.fail "churned traffic not deterministic";
  Alcotest.(check int) "all apps accounted" 3 (List.length o1.Traffic.apps)

(* Spec JSON: print/parse fixed point on structured values. *)
let test_spec_roundtrip () =
  let specs =
    [
      two_tenant_spec ~seed:1;
      one_tenant_spec ~seed:2 ~mode:`Soa;
      Traffic.make_spec ~scale:0.1 ~case:Agrid_platform.Grid.B ~chunk:3 ~seed:5
        ~horizon:100
        ~events:(Agrid_churn.Event.parse_trace "leave@10:0,rejoin@20:0")
        [
          { Traffic.ts_tenant = Tenant.make ~machine_quota:2 "m"; ts_process = Arrivals.Trace [ 0; 1; 1 ] };
        ];
    ]
  in
  List.iter
    (fun spec ->
      match Traffic.spec_of_string (Traffic.spec_to_string spec) with
      | Ok spec' ->
          if spec' <> spec then Alcotest.fail "spec print/parse not a fixed point"
      | Error m -> Alcotest.failf "own spec rejected: %s" m)
    specs;
  (* invalid specs produce one-line errors, not exceptions *)
  List.iter
    (fun s ->
      match Traffic.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad spec accepted: %s" s)
    [
      "{";
      "{}";
      {|{"schema":"agrid-traffic/1","seed":1,"horizon":10,"tenants":[]}|};
      {|{"schema":"agrid-traffic/1","seed":1,"horizon":10,"tenants":[{"id":"x","rate":-2}]}|};
      {|{"schema":"agrid-traffic/1","seed":1,"horizon":10,"tenants":[{"id":"x","rate":0.1,"energy_quota":-1}]}|};
      {|{"schema":"agrid-traffic/1","seed":1,"horizon":10,"tenants":[{"id":"has space","rate":0.1}]}|};
    ]

let suites =
  [
    ( "tenant",
      [
        Alcotest.test_case "arrival determinism + total order" `Quick
          test_arrival_determinism;
        Alcotest.test_case "arrival validation" `Quick test_arrival_validation;
        Alcotest.test_case "quota verdicts total" `Quick test_quota_totality;
        Alcotest.test_case "reservation bounds TEC" `Slow test_reservation_bounds_tec;
        Alcotest.test_case "drr window fairness (qcheck)" `Slow test_drr_fairness;
        Alcotest.test_case "drr constant-cost zero gap" `Quick
          test_drr_constant_cost_zero_gap;
        Alcotest.test_case "drr validation" `Quick test_drr_validation;
        Alcotest.test_case "single-tenant bit identity" `Slow
          test_single_tenant_bit_identity;
        Alcotest.test_case "two-tenant invariants" `Slow test_two_tenant_invariants;
        Alcotest.test_case "obs byte identity" `Slow test_obs_byte_identity;
        Alcotest.test_case "traffic under churn" `Slow test_traffic_with_churn;
        Alcotest.test_case "traffic spec round trip" `Quick test_spec_roundtrip;
      ] );
  ]
