open Agrid_workload
open Agrid_sched

(* Diamond fixture (see Testlib): tasks 0..3, edges (0,1)(0,2)(1,3)(2,3);
   machines 0,1 fast; 2,3 slow; 1 Mb per edge.
   Primary cycles: t0 = [100;120;1000;1100], t1 = [200;180;2000;1900],
   t2 = [300;330;2800;3000], t3 = [140;160;1500;1400].
   Transfers: fast->fast 2 cycles, fast<->slow 3 cycles. *)

let sched () = Schedule.create (Testlib.diamond_workload ())

let commit_plan s ~task ~version ~machine ~not_before =
  let p = Schedule.plan s ~task ~version ~machine ~not_before in
  Schedule.commit s p;
  p

let test_create_empty () =
  let s = sched () in
  Alcotest.(check int) "nothing mapped" 0 (Schedule.n_mapped s);
  Alcotest.(check int) "t100" 0 (Schedule.n_primary s);
  Alcotest.(check int) "aet" 0 (Schedule.aet s);
  Testlib.close "tec" 0. (Schedule.tec s);
  Alcotest.(check (list int)) "only root ready" [ 0 ] (Schedule.ready_unmapped s)

let test_root_plan () =
  let s = sched () in
  let p = Schedule.plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check int) "start" 0 p.Schedule.pl_start;
  Alcotest.(check int) "stop" 100 p.Schedule.pl_stop;
  Alcotest.(check int) "no transfers" 0 (List.length p.Schedule.pl_transfers);
  Testlib.close "exec energy" 1. p.Schedule.pl_exec_energy;
  (* planning must not mutate *)
  Alcotest.(check int) "nothing mapped" 0 (Schedule.n_mapped s)

let test_commit_updates_state () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check int) "mapped" 1 (Schedule.n_mapped s);
  Alcotest.(check int) "t100" 1 (Schedule.n_primary s);
  Alcotest.(check int) "aet" 100 (Schedule.aet s);
  Testlib.close "tec" 1. (Schedule.tec s);
  Testlib.close "energy used" 1. (Schedule.energy_used s 0);
  Testlib.close "energy remaining" 579. (Schedule.energy_remaining s 0);
  Alcotest.(check bool) "machine busy at 50" false
    (Schedule.machine_free_at s ~machine:0 ~time:50);
  Alcotest.(check bool) "machine free at 100" true
    (Schedule.machine_free_at s ~machine:0 ~time:100);
  Alcotest.(check (list int)) "children ready" [ 1; 2 ]
    (List.sort compare (Schedule.ready_unmapped s))

let test_same_machine_no_transfer () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let p = Schedule.plan s ~task:1 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check int) "starts after parent" 100 p.Schedule.pl_start;
  Alcotest.(check int) "no transfers" 0 (List.length p.Schedule.pl_transfers);
  Testlib.close "no comm energy" 0. p.Schedule.pl_comm_energy

let test_cross_machine_transfer () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let p = Schedule.plan s ~task:1 ~version:Version.Primary ~machine:1 ~not_before:0 in
  (match p.Schedule.pl_transfers with
  | [ tr ] ->
      Alcotest.(check int) "transfer departs at parent finish" 100 tr.Schedule.p_start;
      Alcotest.(check int) "2 cycles fast-fast" 102 tr.Schedule.p_stop;
      Testlib.close "1 Mb" 1e6 tr.Schedule.p_bits;
      Testlib.close "0.2 s at 0.2/s" 0.04 tr.Schedule.p_energy
  | l -> Alcotest.failf "expected 1 transfer, got %d" (List.length l));
  Alcotest.(check int) "exec after arrival" 102 p.Schedule.pl_start;
  Alcotest.(check int) "180 cycles on m1" 282 p.Schedule.pl_stop;
  Testlib.close "comm energy total" 0.04 p.Schedule.pl_comm_energy

let test_commit_transfer_bills_sender () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let _ = commit_plan s ~task:1 ~version:Version.Primary ~machine:1 ~not_before:0 in
  (* machine 0: 1.0 exec + 0.04 transfer; machine 1: 18 s * 0.1 = 1.8 *)
  Testlib.close "sender billed" 1.04 (Schedule.energy_used s 0);
  Testlib.close "receiver exec only" 1.8 (Schedule.energy_used s 1);
  Testlib.close "tec" 2.84 (Schedule.tec s);
  Alcotest.(check int) "1 committed transfer" 1 (Array.length (Schedule.transfers s))

let test_secondary_data_volume () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Secondary ~machine:0 ~not_before:0 in
  let p = Schedule.plan s ~task:1 ~version:Version.Primary ~machine:1 ~not_before:0 in
  (match p.Schedule.pl_transfers with
  | [ tr ] ->
      Testlib.close "10% volume" 1e5 tr.Schedule.p_bits;
      (* 1e5 bits / 8e6 = 0.0125 s -> 1 cycle *)
      Alcotest.(check int) "1 cycle" 1 (tr.Schedule.p_stop - tr.Schedule.p_start)
  | l -> Alcotest.failf "expected 1 transfer, got %d" (List.length l))

let test_in_channel_contention () =
  (* both parents on different machines feed task 3 on machine 1: their
     transfers must serialise on machine 1's incoming channel *)
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let _ = commit_plan s ~task:1 ~version:Version.Primary ~machine:0 ~not_before:0 in
  (* t1 on m0: 100..300 *)
  let _ = commit_plan s ~task:2 ~version:Version.Primary ~machine:2 ~not_before:0 in
  (* t2 on m2 (slow): transfer 0->2 at 100..103, exec 103..2903 *)
  let p = Schedule.plan s ~task:3 ~version:Version.Primary ~machine:1 ~not_before:0 in
  (match p.Schedule.pl_transfers with
  | [ a; b ] ->
      (* parent order: task 1 (m0) then task 2 (m2) *)
      Alcotest.(check int) "from t1 after t1 finish" 300 a.Schedule.p_start;
      Alcotest.(check int) "fast-fast 2cy" 302 a.Schedule.p_stop;
      Alcotest.(check int) "from t2 after t2 finish" 2903 b.Schedule.p_start;
      Alcotest.(check int) "slow-fast 3cy" 2906 b.Schedule.p_stop
  | l -> Alcotest.failf "expected 2 transfers, got %d" (List.length l));
  Alcotest.(check int) "exec after last arrival" 2906 p.Schedule.pl_start

let test_in_channel_serialisation_same_time () =
  (* force two incoming transfers to contend: parents finish simultaneously *)
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  (* map t1 and t2 on machines 2 and 3 as secondaries so they finish at
     known times; then map t3 on machine 1 and check its two incoming
     transfers do not overlap *)
  let _ = commit_plan s ~task:1 ~version:Version.Secondary ~machine:2 ~not_before:0 in
  let _ = commit_plan s ~task:2 ~version:Version.Secondary ~machine:3 ~not_before:0 in
  let p = Schedule.plan s ~task:3 ~version:Version.Primary ~machine:1 ~not_before:0 in
  (match p.Schedule.pl_transfers with
  | [ a; b ] ->
      let disjoint =
        a.Schedule.p_stop <= b.Schedule.p_start || b.Schedule.p_stop <= a.Schedule.p_start
      in
      Alcotest.(check bool) "incoming transfers disjoint" true disjoint
  | l -> Alcotest.failf "expected 2 transfers, got %d" (List.length l))

let test_not_before_respected () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let p = Schedule.plan s ~task:1 ~version:Version.Primary ~machine:1 ~not_before:500 in
  (match p.Schedule.pl_transfers with
  | [ tr ] -> Alcotest.(check int) "transfer not before clock" 500 tr.Schedule.p_start
  | _ -> Alcotest.fail "expected 1 transfer");
  Alcotest.(check int) "exec not before clock" 502 p.Schedule.pl_start

let test_plan_rejects_mapped_task () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.check_raises "already mapped"
    (Invalid_argument "Schedule.plan: task already mapped") (fun () ->
      ignore (Schedule.plan s ~task:0 ~version:Version.Primary ~machine:1 ~not_before:0))

let test_plan_rejects_unmapped_parent () =
  let s = sched () in
  let raised =
    try
      ignore (Schedule.plan s ~task:3 ~version:Version.Primary ~machine:0 ~not_before:0);
      false
    with Schedule.Unmapped_parent { task = 3; parent = _ } -> true
  in
  Alcotest.(check bool) "unmapped parent" true raised

let test_exec_machine_contention () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  (* t1 and t2 both on machine 0: must serialise *)
  let p1 = commit_plan s ~task:1 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let p2 = commit_plan s ~task:2 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check int) "t1 at 100" 100 p1.Schedule.pl_start;
  Alcotest.(check int) "t2 after t1" 300 p2.Schedule.pl_start;
  Alcotest.(check int) "aet" 600 (Schedule.aet s)

let test_totals_after () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let p = Schedule.plan s ~task:1 ~version:Version.Secondary ~machine:0 ~not_before:0 in
  let t100, tec, aet = Schedule.totals_after s p in
  Alcotest.(check int) "t100 unchanged by secondary" 1 t100;
  Alcotest.(check int) "aet extends" 120 aet;
  (* secondary on m0: 20 cycles = 2 s * 0.1 = 0.2 *)
  Testlib.close "tec" 1.2 tec

let full_mapping () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let _ = commit_plan s ~task:1 ~version:Version.Primary ~machine:1 ~not_before:0 in
  let _ = commit_plan s ~task:2 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let _ = commit_plan s ~task:3 ~version:Version.Secondary ~machine:1 ~not_before:0 in
  s

let test_validator_accepts_clean_schedule () =
  let s = full_mapping () in
  let r = Validate.check s in
  Alcotest.(check bool) "complete" true r.Validate.complete;
  Alcotest.(check (list string)) "no violations" [] r.Validate.violations;
  Alcotest.(check bool) "energy ok" true r.Validate.energy_ok;
  Alcotest.(check bool) "time ok" true r.Validate.time_ok;
  Alcotest.(check bool) "feasible" true (Validate.feasible r);
  Alcotest.(check int) "t100 recount" 3 r.Validate.t100;
  Testlib.close "tec recount" (Schedule.tec s) r.Validate.tec;
  Alcotest.(check int) "aet recount" (Schedule.aet s) r.Validate.aet

let test_validator_detects_incomplete () =
  let s = sched () in
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let r = Validate.check s in
  Alcotest.(check bool) "incomplete" false r.Validate.complete;
  Alcotest.(check bool) "not feasible" false (Validate.feasible r)

let test_validator_detects_orphan_child () =
  (* replay a child placement without its parent: precedence violation *)
  let s = sched () in
  Schedule.replay_placement s
    { Schedule.task = 1; version = Version.Primary; machine = 0; start = 0; stop = 200 };
  let r = Validate.check s in
  Alcotest.(check bool) "violations found" true (r.Validate.violations <> [])

let test_validator_detects_missing_transfer () =
  let s = sched () in
  Schedule.replay_placement s
    { Schedule.task = 0; version = Version.Primary; machine = 0; start = 0; stop = 100 };
  (* child on another machine with no transfer *)
  Schedule.replay_placement s
    { Schedule.task = 1; version = Version.Primary; machine = 1; start = 100; stop = 280 };
  let r = Validate.check s in
  Alcotest.(check bool) "missing transfer caught" true
    (List.exists (fun v -> Testlib.contains v "no transfer") r.Validate.violations)

let test_validator_detects_wrong_duration () =
  let s = sched () in
  Schedule.replay_placement s
    { Schedule.task = 0; version = Version.Primary; machine = 0; start = 0; stop = 99 };
  let r = Validate.check s in
  Alcotest.(check bool) "duration caught" true
    (List.exists (fun v -> Testlib.contains v "duration") r.Validate.violations)

let test_validator_detects_energy_violation () =
  (* pile expensive primaries onto slow machine 3 (battery 58): task 2 is
     3000 cycles = 300 s at 0.001 = 0.3 units — fine; instead shrink the
     battery via spec scaling to force violation *)
  let spec = { (Testlib.diamond_spec ()) with Spec.battery_scale = 0.0001 } in
  let wl =
    Workload.build spec ~etc:(Testlib.diamond_etc ()) ~dag:(Testlib.diamond_dag ())
      ~data_bits:(Testlib.diamond_data ()) ~etc_index:0 ~dag_index:0
      ~case:Agrid_platform.Grid.A
  in
  let s = Schedule.create wl in
  let p = Schedule.plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Schedule.commit s p;
  let r = Validate.check s in
  Alcotest.(check bool) "energy flagged" false r.Validate.energy_ok

let test_validator_detects_time_violation () =
  let wl = Workload.with_tau (Testlib.diamond_workload ()) ~tau_cycles:50 in
  let s = Schedule.create wl in
  let p = Schedule.plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Schedule.commit s p;
  let r = Validate.check s in
  Alcotest.(check bool) "time flagged" false r.Validate.time_ok

let test_replay_roundtrip () =
  (* replaying a committed schedule's placements+transfers into a fresh
     schedule reproduces counters exactly *)
  let s = full_mapping () in
  let s' = Schedule.create (Testlib.diamond_workload ()) in
  Array.iter (Schedule.replay_placement s') (Schedule.placements s);
  Array.iter (Schedule.replay_transfer s') (Schedule.transfers s);
  Alcotest.(check int) "t100" (Schedule.n_primary s) (Schedule.n_primary s');
  Alcotest.(check int) "aet" (Schedule.aet s) (Schedule.aet s');
  Testlib.close "tec" (Schedule.tec s) (Schedule.tec s') ~eps:1e-9;
  let r = Validate.check s' in
  Alcotest.(check bool) "replayed schedule feasible" true (Validate.feasible r)

let test_frontier_progression () =
  let s = sched () in
  Alcotest.(check (list int)) "root" [ 0 ] (Schedule.ready_unmapped s);
  let _ = commit_plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check (list int)) "middle" [ 1; 2 ]
    (List.sort compare (Schedule.ready_unmapped s));
  let _ = commit_plan s ~task:1 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check (list int)) "still waiting for 2" [ 2 ]
    (List.sort compare (Schedule.ready_unmapped s));
  let _ = commit_plan s ~task:2 ~version:Version.Primary ~machine:1 ~not_before:0 in
  Alcotest.(check (list int)) "leaf ready" [ 3 ] (Schedule.ready_unmapped s);
  let _ = commit_plan s ~task:3 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Alcotest.(check (list int)) "done" [] (Schedule.ready_unmapped s);
  Alcotest.(check bool) "all mapped" true (Schedule.all_mapped s)

(* qcheck stress: random valid commit sequences keep every engine counter
   in agreement with the independent validator's recomputation, and every
   timeline well-formed. *)
let test_qcheck_random_commits_consistent () =
  let wl = Testlib.small_workload () in
  let n = Workload.n_tasks wl and m = Workload.n_machines wl in
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 100_000)
        (list_size (return n) (pair (int_range 0 (m - 1)) bool)))
  in
  let prop (extra_seed, choices) =
    let sched = Schedule.create wl in
    let choices = Array.of_list choices in
    (* map tasks in topological order with the generated machine/version
       choices, at staggered not_before values derived from extra_seed *)
    let order = Agrid_dag.Dag.topological_order (Workload.dag wl) in
    Array.iteri
      (fun idx task ->
        let machine, primary = choices.(idx mod Array.length choices) in
        let version = if primary then Version.Primary else Version.Secondary in
        let not_before = (extra_seed + (idx * 7)) mod 500 in
        let plan = Schedule.plan sched ~task ~version ~machine ~not_before in
        Schedule.commit sched plan)
      order;
    let r = Validate.check sched in
    r.Validate.complete
    && r.Validate.violations = []
    && r.Validate.t100 = Schedule.n_primary sched
    && r.Validate.aet = Schedule.aet sched
    && Float.abs (r.Validate.tec -. Schedule.tec sched) < 1e-6
    &&
    let tl_ok = ref true in
    for j = 0 to m - 1 do
      if not (Timeline.well_formed (Schedule.exec_timeline sched j)) then tl_ok := false;
      if not (Timeline.well_formed (Schedule.ch_out_timeline sched j)) then tl_ok := false;
      if not (Timeline.well_formed (Schedule.ch_in_timeline sched j)) then tl_ok := false
    done;
    !tl_ok
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:40 ~name:"random commits: engine = validator" gen prop)

(* qcheck: planning never mutates — interleave plans with commits and check
   the schedule state only changes at commits *)
let test_qcheck_plan_purity () =
  let wl = Testlib.small_workload () in
  let m = Workload.n_machines wl in
  let gen = QCheck2.Gen.int_range 0 100_000 in
  let prop seed =
    let sched = Schedule.create wl in
    let rng = Testlib.rng ~seed () in
    let order = Agrid_dag.Dag.topological_order (Workload.dag wl) in
    Array.for_all
      (fun task ->
        (* several throwaway plans... *)
        for _ = 1 to 3 do
          let machine = Agrid_prng.Splitmix64.next_int rng m in
          ignore (Schedule.plan sched ~task ~version:Version.Primary ~machine ~not_before:0)
        done;
        let before = (Schedule.n_mapped sched, Schedule.tec sched, Schedule.aet sched) in
        let machine = Agrid_prng.Splitmix64.next_int rng m in
        let probe = Schedule.plan sched ~task ~version:Version.Secondary ~machine ~not_before:0 in
        let after = (Schedule.n_mapped sched, Schedule.tec sched, Schedule.aet sched) in
        (* ...must leave the schedule untouched *)
        let pure = before = after in
        Schedule.commit sched probe;
        pure)
      order
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:30 ~name:"plan is pure" gen prop)

(* ---- differential: overlay planner vs copy-on-write oracle ----

   A copy-on-write planner: every channel a plan touches is copied on first
   use, each transfer is fitted with the two-timeline joint fit on the
   copies and inserted into them, so later transfers of the same plan see
   it. Slow (it copies whole channels) but obviously right — the reference
   Schedule.plan, which fits against the real channels plus a per-plan
   overlay, must match bit for bit. *)
module Oracle = struct
  let plan sched ~task ~version ~machine ~not_before =
    let wl = Schedule.workload sched in
    let grid = Workload.grid wl in
    (* (real channel, private copy) for every channel touched so far *)
    let copies = ref [] in
    let get base =
      match List.find_opt (fun (b, _) -> b == base) !copies with
      | Some (_, c) -> c
      | None ->
          let c = Testlib.copy_timeline base in
          copies := (base, c) :: !copies;
          c
    in
    let ready = ref not_before in
    let planned = ref [] in
    let comm_energy = ref 0. in
    let dag = Workload.dag wl in
    for k = 0 to Agrid_dag.Dag.in_degree dag task - 1 do
      let edge = Agrid_dag.Dag.parent_edge dag task k in
      let p = Agrid_dag.Dag.src dag edge in
      match Schedule.placement sched p with
      | None -> raise (Schedule.Unmapped_parent { task; parent = p })
      | Some pp ->
          if pp.Schedule.machine = machine then ready := max !ready pp.Schedule.stop
          else begin
            let src = pp.Schedule.machine in
            let bits =
              Workload.edge_bits wl ~edge ~parent_version:pp.Schedule.version
            in
            let duration =
              Agrid_platform.Comm.transfer_cycles grid ~src ~dst:machine ~bits
            in
            let nb = max pp.Schedule.stop not_before in
            if duration = 0 then ready := max !ready nb
            else begin
              let out_tl = get (Schedule.ch_out_timeline sched src) in
              let in_tl = get (Schedule.ch_in_timeline sched machine) in
              let start =
                Testlib.first_fit_joint out_tl in_tl ~not_before:nb ~duration
              in
              let stop = start + duration in
              Timeline.insert out_tl ~start ~stop;
              Timeline.insert in_tl ~start ~stop;
              let energy =
                Agrid_platform.Comm.transfer_energy grid ~src ~dst:machine ~bits
              in
              planned :=
                {
                  Schedule.p_edge = edge;
                  p_src_task = p;
                  p_src = src;
                  p_start = start;
                  p_stop = stop;
                  p_bits = bits;
                  p_energy = energy;
                }
                :: !planned;
              comm_energy := !comm_energy +. energy;
              ready := max !ready stop
            end
          end
    done;
    let duration = Workload.exec_cycles wl ~task ~machine ~version in
    let start =
      Timeline.first_fit (Schedule.exec_timeline sched machine) ~not_before:!ready
        ~duration
    in
    {
      Schedule.pl_task = task;
      pl_version = version;
      pl_machine = machine;
      pl_start = start;
      pl_stop = start + duration;
      pl_transfers = List.rev !planned;
      pl_exec_energy = Workload.exec_energy wl ~task ~machine ~version;
      pl_comm_energy = !comm_energy;
    }
end

(* Every field of a plan, transfers in order, floats by bits. *)
let plan_fingerprint (p : Schedule.plan) =
  let bits f = Int64.to_string (Int64.bits_of_float f) in
  String.concat " "
    ([
       string_of_int p.Schedule.pl_task;
       Version.to_string p.Schedule.pl_version;
       string_of_int p.Schedule.pl_machine;
       string_of_int p.Schedule.pl_start;
       string_of_int p.Schedule.pl_stop;
       bits p.Schedule.pl_exec_energy;
       bits p.Schedule.pl_comm_energy;
     ]
    @ List.map
        (fun (tr : Schedule.planned_transfer) ->
          Fmt.str "[%d %d %d %d-%d %s %s]" tr.Schedule.p_edge tr.Schedule.p_src_task
            tr.Schedule.p_src tr.Schedule.p_start tr.Schedule.p_stop
            (bits tr.Schedule.p_bits) (bits tr.Schedule.p_energy))
        p.Schedule.pl_transfers)

let timelines_snapshot sched =
  let m = Workload.n_machines (Schedule.workload sched) in
  List.concat_map
    (fun j ->
      [
        Timeline.to_list (Schedule.exec_timeline sched j);
        Timeline.to_list (Schedule.ch_out_timeline sched j);
        Timeline.to_list (Schedule.ch_in_timeline sched j);
      ])
    (List.init m Fun.id)

(* A random DAG on 5..14 tasks, dense enough that most tasks have several
   parents, over a random grid case (3 or 4 machines, so parents often
   share a sender), with edge volumes from nothing (a zero-cycle transfer)
   up to ~16 cycles on a fast link. *)
let random_workload rng =
  let next = Agrid_prng.Splitmix64.next_int rng in
  let n = 5 + next 10 in
  let edges =
    List.concat_map
      (fun j -> List.filter_map (fun i -> if next 100 < 40 then Some (i, j) else None)
          (List.init j Fun.id))
      (List.init n Fun.id)
  in
  let dag = Agrid_dag.Dag.of_edges ~n edges in
  let etc =
    Agrid_etc.Etc.of_matrix
      ~klasses:Agrid_platform.Machine.[| Fast; Fast; Slow; Slow |]
      (Array.init n (fun _ -> Array.init 4 (fun _ -> 0.1 *. float_of_int (1 + next 400))))
  in
  let data_bits =
    Array.init (Agrid_dag.Dag.n_edges dag) (fun _ ->
        if next 10 = 0 then 0. else 1e5 *. float_of_int (1 + next 80))
  in
  let base = Testlib.diamond_spec () in
  let spec =
    {
      base with
      Spec.n_tasks = n;
      etc_params = Agrid_etc.Etc.default_params ~n_tasks:n;
      dag_params = Agrid_dag.Generate.default_params ~n;
    }
  in
  let case = Agrid_platform.Grid.(match next 3 with 0 -> A | 1 -> B | _ -> C) in
  Workload.build spec ~etc ~dag ~data_bits ~etc_index:0 ~dag_index:0 ~case

(* Coverage across the whole property run: plans whose transfers share one
   out-channel, plans with two or more transfers (which always share the
   receiver's in-channel), and transfers the overlay actually displaced
   from their base-channel slot. *)
let shared_out = ref 0
let shared_in = ref 0
let displaced = ref 0

(* Plan one candidate both ways; fail on any difference, tally coverage,
   return the plan's fingerprint. *)
let check_against_oracle sched ~task ~version ~machine ~not_before =
  let p = Schedule.plan sched ~task ~version ~machine ~not_before in
  let fp = plan_fingerprint p in
  let fo = plan_fingerprint (Oracle.plan sched ~task ~version ~machine ~not_before) in
  if fp <> fo then
    QCheck2.Test.fail_reportf "plan differs from oracle:@.plan   %s@.oracle %s" fp fo;
  let trs = p.Schedule.pl_transfers in
  let srcs = List.map (fun tr -> tr.Schedule.p_src) trs in
  if List.length trs >= 2 then incr shared_in;
  if List.length (List.sort_uniq compare srcs) < List.length srcs then incr shared_out;
  List.iter
    (fun (tr : Schedule.planned_transfer) ->
      let parent_stop =
        match Schedule.placement sched tr.Schedule.p_src_task with
        | Some pl -> pl.Schedule.stop
        | None -> assert false
      in
      let base_only =
        Testlib.first_fit_joint
          (Schedule.ch_out_timeline sched tr.Schedule.p_src)
          (Schedule.ch_in_timeline sched machine)
          ~not_before:(max parent_stop not_before)
          ~duration:(tr.Schedule.p_stop - tr.Schedule.p_start)
      in
      if base_only <> tr.Schedule.p_start then incr displaced)
    trs;
  fp

(* A random partial schedule: a topological prefix of a random workload
   committed at random machines and staggered clocks, leaving gaps on the
   channels. Returns the schedule, the seed's draw function and a random
   version picker. *)
let random_partial_schedule seed =
  let rng = Testlib.rng ~seed () in
  let next = Agrid_prng.Splitmix64.next_int rng in
  let wl = random_workload rng in
  let sched = Schedule.create wl in
  let m = Workload.n_machines wl in
  let version () = if next 2 = 0 then Version.Primary else Version.Secondary in
  let order = Agrid_dag.Dag.topological_order (Workload.dag wl) in
  for k = 0 to next (Array.length order) - 1 do
    let task = order.(k) in
    Schedule.commit sched
      (Schedule.plan sched ~task ~version:(version ()) ~machine:(next m)
         ~not_before:(next 300))
  done;
  (sched, next, version)

let test_qcheck_plan_matches_oracle () =
  let prop seed =
    let sched, next, version = random_partial_schedule seed in
    let m = Workload.n_machines (Schedule.workload sched) in
    let before = timelines_snapshot sched in
    let planned = ref [] in
    List.iter
      (fun task ->
        for machine = 0 to m - 1 do
          List.iter
            (fun not_before ->
              let version = version () in
              let fp = check_against_oracle sched ~task ~version ~machine ~not_before in
              planned := (task, version, machine, not_before, fp) :: !planned)
            [ 0; next 400 ]
        done)
      (Schedule.ready_unmapped sched);
    if timelines_snapshot sched <> before then
      QCheck2.Test.fail_report "plan mutated a timeline";
    (* each plan above followed discarded ones; re-planning them all in
       reverse order must reproduce every one exactly *)
    List.iter
      (fun (task, version, machine, not_before, fp) ->
        let again =
          plan_fingerprint (Schedule.plan sched ~task ~version ~machine ~not_before)
        in
        if again <> fp then
          QCheck2.Test.fail_reportf "re-plan after discarded plans differs:@.%s@.%s" fp
            again)
      !planned;
    true
  in
  shared_out := 0;
  shared_in := 0;
  displaced := 0;
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"plan = copy-on-write oracle"
       (QCheck2.Gen.int_range 0 1_000_000) prop);
  Alcotest.(check bool) "some plans share an out-channel" true (!shared_out > 0);
  Alcotest.(check bool) "some plans share the in-channel" true (!shared_in > 0);
  Alcotest.(check bool) "the overlay displaced some transfer" true (!displaced > 0)

(* The SoA walk plans into the schedule's buffer and commits from it;
   the rescan path and the baselines copy the same plan out into a
   record and commit that. Both routes must leave bit-identical
   schedules: same start and stop, timelines, transfer records, energy
   ledger and TEC. Each case maps the whole ready set, one task at a
   time, on two copies of one random partial schedule. *)
let schedule_fingerprint sched =
  let wl = Schedule.workload sched in
  let bits f = Int64.bits_of_float f in
  ( timelines_snapshot sched,
    Array.to_list (Schedule.transfers sched)
    |> List.map (fun (tr : Schedule.transfer) ->
           ( (tr.Schedule.edge, tr.Schedule.src_task, tr.Schedule.dst_task, tr.Schedule.src),
             (tr.Schedule.dst, tr.Schedule.start, tr.Schedule.stop),
             (bits tr.Schedule.bits, bits tr.Schedule.energy) )),
    List.init (Workload.n_machines wl) (fun j -> bits (Schedule.energy_used sched j)),
    (bits (Schedule.tec sched), Schedule.n_primary sched, Schedule.aet sched) )

let test_qcheck_buffered_commit_matches_record () =
  let prop seed =
    let a, next, version = random_partial_schedule seed in
    let b, _, _ = random_partial_schedule seed in
    let m = Workload.n_machines (Schedule.workload a) in
    while Schedule.n_ready a > 0 do
      let task = (Schedule.ready_tasks a).(next (Schedule.n_ready a)) in
      let version = version () and machine = next m and not_before = next 400 in
      let p = Schedule.plan a ~task ~version ~machine ~not_before in
      let start = Schedule.plan_into b ~task ~version ~machine ~not_before in
      if start <> p.Schedule.pl_start then
        QCheck2.Test.fail_reportf "task %d: buffered plan starts at %d vs record %d" task
          start p.Schedule.pl_start;
      Schedule.commit a p;
      Schedule.commit_planned b;
      if schedule_fingerprint a <> schedule_fingerprint b then
        QCheck2.Test.fail_reportf "task %d: schedules differ after commit" task
    done;
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"buffered commit = record commit"
       (QCheck2.Gen.int_range 0 1_000_000) prop)

(* A buffered plan commits once; a commit of nothing is refused. *)
let test_commit_planned_once () =
  let s = sched () in
  Alcotest.check_raises "nothing planned"
    (Invalid_argument "Schedule.commit_planned: no plan to commit") (fun () ->
      Schedule.commit_planned s);
  ignore (Schedule.plan_into s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0);
  Schedule.commit_planned s;
  Alcotest.(check bool) "mapped" true (Schedule.is_mapped s 0);
  Alcotest.check_raises "already committed"
    (Invalid_argument "Schedule.commit_planned: no plan to commit") (fun () ->
      Schedule.commit_planned s)

(* ---- the SLRH walk's skip bound ----

   The SoA walk does not plan a candidate whose parent-ready bound (what
   [Objective.parent_bound_into] stores) lies past [now + horizon]. That
   is sound only if no plan of the task on that machine starts before the
   bound, whatever [not_before] is. Coverage: some bounds must be met
   exactly (the bound is tight, not vacuously low) and some must lie past
   [not_before] (so the bound, not the clock, decides). *)
let test_qcheck_bound_below_plan () =
  let tight = ref 0 and ahead = ref 0 in
  let prop seed =
    let sched, next, version = random_partial_schedule seed in
    let m = Workload.n_machines (Schedule.workload sched) in
    let bound_ready = [| 0 |] and bound_comm = [| 0. |] in
    List.iter
      (fun task ->
        for machine = 0 to m - 1 do
          Agrid_core.Objective.parent_bound_into sched ~task ~machine ~slot:0
            bound_ready bound_comm;
          let bound = bound_ready.(0) in
          List.iter
            (fun not_before ->
              let p = Schedule.plan sched ~task ~version:(version ()) ~machine ~not_before in
              if bound > p.Schedule.pl_start then
                QCheck2.Test.fail_reportf
                  "task %d on machine %d, not_before %d: bound %d > planned start %d"
                  task machine not_before bound p.Schedule.pl_start;
              if bound = p.Schedule.pl_start then incr tight;
              if bound > not_before then incr ahead)
            [ 0; next 400; max 0 bound; max 0 (bound - 1 - next 50) ]
        done)
      (Schedule.ready_unmapped sched);
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"parent bound <= planned start"
       (QCheck2.Gen.int_range 0 1_000_000) prop);
  Alcotest.(check bool) "some bounds are met exactly" true (!tight > 0);
  Alcotest.(check bool) "some bounds lie past not_before" true (!ahead > 0)

(* The ready frontier against the list model it replaced: roots in
   ascending order, each child prepended the moment its last parent is
   mapped (in child-edge order), mapped tasks filtered out on read. The
   rescan/soa differential cannot see this order — both modes share
   [Schedule] — yet it is the fill order of every pool. Random
   interleavings of [commit] (a random ready task) and [replay_placement]
   (any unmapped task, ready or not, as churn rebuilds do) must leave
   [ready_unmapped] and the array view equal to the model after every
   step. *)
let test_qcheck_frontier_matches_list_model () =
  let replayed_early = ref 0 in
  let prop seed =
    let rng = Testlib.rng ~seed () in
    let next = Agrid_prng.Splitmix64.next_int rng in
    let wl = random_workload rng in
    let dag = Workload.dag wl in
    let n = Workload.n_tasks wl and m = Workload.n_machines wl in
    let sched = Schedule.create wl in
    let pending = Array.init n (Agrid_dag.Dag.in_degree dag) in
    let model = ref (List.filter (fun i -> pending.(i) = 0) (List.init n Fun.id)) in
    let mapped = Array.make n false in
    let model_view () = List.filter (fun i -> not mapped.(i)) !model in
    let model_mapped task =
      mapped.(task) <- true;
      for k = 0 to Agrid_dag.Dag.out_degree dag task - 1 do
        let c = Agrid_dag.Dag.child dag task k in
        pending.(c) <- pending.(c) - 1;
        if pending.(c) = 0 then model := c :: !model
      done
    in
    let check step =
      let want = model_view () in
      let got = Schedule.ready_unmapped sched in
      let arr =
        List.init (Schedule.n_ready sched) (fun i -> (Schedule.ready_tasks sched).(i))
      in
      let show l = String.concat ";" (List.map string_of_int l) in
      if got <> want then
        QCheck2.Test.fail_reportf "step %d: ready_unmapped [%s], model [%s]" step
          (show got) (show want);
      if arr <> want then
        QCheck2.Test.fail_reportf "step %d: frontier array [%s], model [%s]" step
          (show arr) (show want)
    in
    check 0;
    for step = 1 to n do
      let ready = model_view () in
      let unmapped = List.filter (fun i -> not mapped.(i)) (List.init n Fun.id) in
      if ready = [] || next 3 = 0 then begin
        let task = List.nth unmapped (next (List.length unmapped)) in
        if pending.(task) > 0 then incr replayed_early;
        let machine = next m in
        (* past everything on the machine, so the replay cannot overlap *)
        let start = Timeline.horizon (Schedule.exec_timeline sched machine) + 1000 in
        Schedule.replay_placement sched
          {
            Schedule.task;
            version = (if next 2 = 0 then Version.Primary else Version.Secondary);
            machine;
            start;
            stop = start + 5;
          };
        model_mapped task
      end
      else begin
        let task = List.nth ready (next (List.length ready)) in
        Schedule.commit sched
          (Schedule.plan sched ~task
             ~version:(if next 2 = 0 then Version.Primary else Version.Secondary)
             ~machine:(next m) ~not_before:(next 300));
        model_mapped task
      end;
      check step
    done;
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:300 ~name:"frontier = list model"
       (QCheck2.Gen.int_range 0 1_000_000) prop);
  Alcotest.(check bool) "some tasks were replayed before their parents" true
    (!replayed_early > 0)

(* [Schedule.machine_free_from] against a linear scan of the execution
   timeline: step past whichever interval covers the candidate cycle
   until none does. Extra intervals are inserted straight into the
   timelines, some back to back, so busy runs chain across intervals. *)
let test_qcheck_machine_free_from () =
  let chained = ref 0 in
  let scan tl time =
    let ivs = Timeline.to_list tl in
    let rec go t =
      match List.find_opt (fun (a, b) -> a <= t && t < b) ivs with
      | Some (_, b) -> go b
      | None -> t
    in
    go time
  in
  let prop seed =
    let sched, next, _ = random_partial_schedule seed in
    let m = Workload.n_machines (Schedule.workload sched) in
    for machine = 0 to m - 1 do
      let tl = Schedule.exec_timeline sched machine in
      let at = ref (next 200) in
      for _ = 1 to next 6 do
        let len = 1 + next 40 in
        if Timeline.is_free tl ~start:!at ~stop:(!at + len) then
          Timeline.insert tl ~start:!at ~stop:(!at + len);
        (* half the time the next interval starts where this one stops *)
        at := !at + len + if next 2 = 0 then 0 else next 60
      done;
      let probes =
        List.init 12 (fun _ -> next (Timeline.horizon tl + 20))
        @ List.concat_map (fun (a, b) -> [ a; b - 1; b ]) (Timeline.to_list tl)
      in
      List.iter
        (fun time ->
          let got = Schedule.machine_free_from sched ~machine ~time in
          let want = scan tl time in
          if got <> want then
            QCheck2.Test.fail_reportf "machine %d, time %d: free from %d, scan says %d"
              machine time got want;
          if got <> time && Schedule.machine_free_at sched ~machine ~time then
            QCheck2.Test.fail_reportf "machine %d free at %d but free_from says %d"
              machine time got;
          match List.find_opt (fun (a, b) -> a <= time && time < b) (Timeline.to_list tl) with
          | Some (_, b) when got > b -> incr chained
          | _ -> ())
        probes
    done;
    true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"machine_free_from = linear scan"
       (QCheck2.Gen.int_range 0 1_000_000) prop);
  Alcotest.(check bool) "some busy runs chain intervals" true (!chained > 0)

let test_validator_detects_channel_overlap () =
  (* two transfers overlapping on the same outgoing channel, injected via
     replay (the engine's own planner would never produce this) *)
  let s = sched () in
  Schedule.replay_placement s
    { Schedule.task = 0; version = Version.Primary; machine = 0; start = 0; stop = 100 };
  Schedule.replay_placement s
    { Schedule.task = 1; version = Version.Primary; machine = 1; start = 102; stop = 282 };
  Schedule.replay_placement s
    { Schedule.task = 2; version = Version.Primary; machine = 2; start = 103; stop = 2903 };
  (* both edges 0->1 and 0->2 transferred from machine 0 at the same time;
     bypass the engine's own channel timelines by replaying into a fresh
     schedule whose timeline insert would catch it -- so instead check that
     replay_transfer itself refuses the overlap *)
  Schedule.replay_transfer s
    { Schedule.edge = 0; src_task = 0; dst_task = 1; src = 0; dst = 1; start = 100;
      stop = 102; bits = 1e6; energy = 0.04 };
  let raised =
    match
      Schedule.replay_transfer s
        { Schedule.edge = 1; src_task = 0; dst_task = 2; src = 0; dst = 2; start = 100;
          stop = 103; bits = 1e6; energy = 0.06 }
    with
    | () -> false
    | exception Timeline.Overlap _ -> true
  in
  Alcotest.(check bool) "outgoing channel overlap rejected" true raised

let test_validator_detects_duplicate_transfer () =
  let s = sched () in
  Schedule.replay_placement s
    { Schedule.task = 0; version = Version.Primary; machine = 0; start = 0; stop = 100 };
  Schedule.replay_placement s
    { Schedule.task = 1; version = Version.Primary; machine = 1; start = 104; stop = 284 };
  Schedule.replay_transfer s
    { Schedule.edge = 0; src_task = 0; dst_task = 1; src = 0; dst = 1; start = 100;
      stop = 102; bits = 1e6; energy = 0.04 };
  Schedule.replay_transfer s
    { Schedule.edge = 0; src_task = 0; dst_task = 1; src = 0; dst = 1; start = 102;
      stop = 104; bits = 1e6; energy = 0.04 };
  let r = Validate.check s in
  Alcotest.(check bool) "duplicate transfer caught" true
    (List.exists (fun v -> Testlib.contains v "more than once") r.Validate.violations)

(* ---- failure injection ---- *)

let test_stale_plan_commit_raises () =
  (* plan two candidates for the same slot against the same state, commit
     both: the second is stale and must raise Overlap rather than corrupt
     the timeline *)
  let s = sched () in
  let p1 = Schedule.plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Schedule.commit s p1;
  let p2a = Schedule.plan s ~task:1 ~version:Version.Primary ~machine:0 ~not_before:0 in
  let p2b = Schedule.plan s ~task:2 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Schedule.commit s p2a;
  (* p2b planned the same gap (starting at 100) which p2a now occupies *)
  let raised =
    match Schedule.commit s p2b with
    | () -> false
    | exception Timeline.Overlap _ -> true
  in
  Alcotest.(check bool) "stale commit raises" true raised

let test_double_commit_rejected () =
  let s = sched () in
  let p = Schedule.plan s ~task:0 ~version:Version.Primary ~machine:0 ~not_before:0 in
  Schedule.commit s p;
  Alcotest.check_raises "double commit"
    (Invalid_argument "Schedule.commit: task already mapped") (fun () ->
      Schedule.commit s p)

(* ---- metrics ---- *)

let test_metrics_consistency () =
  let s = full_mapping () in
  let m = Metrics.compute s in
  Alcotest.(check int) "t100" (Schedule.n_primary s) m.Metrics.t100;
  Alcotest.(check int) "aet" (Schedule.aet s) m.Metrics.aet;
  Testlib.close "tec" (Schedule.tec s) m.Metrics.tec;
  (* per-machine task counts sum to total *)
  let total_tasks =
    List.fold_left (fun acc mm -> acc + mm.Metrics.n_tasks) 0 m.Metrics.per_machine
  in
  Alcotest.(check int) "tasks partitioned" (Schedule.n_mapped s) total_tasks;
  (* busy fraction within [0, 1] *)
  List.iter
    (fun mm ->
      if mm.Metrics.exec_busy_fraction < 0. || mm.Metrics.exec_busy_fraction > 1. then
        Alcotest.failf "busy fraction %g out of range" mm.Metrics.exec_busy_fraction)
    m.Metrics.per_machine

let test_metrics_comm_share () =
  let s = full_mapping () in
  let m = Metrics.compute s in
  Alcotest.(check bool) "comm share in [0,1)" true
    (m.Metrics.comm_energy_fraction >= 0. && m.Metrics.comm_energy_fraction < 1.);
  (* exec + comm = tec *)
  let exec_energy =
    List.fold_left
      (fun acc mm -> acc +. mm.Metrics.energy_used)
      0. m.Metrics.per_machine
  in
  Testlib.close "energy ledger adds up" m.Metrics.tec exec_energy ~eps:1e-9

let suites =
  [
    ( "schedule",
      [
        Alcotest.test_case "create empty" `Quick test_create_empty;
        Alcotest.test_case "root plan" `Quick test_root_plan;
        Alcotest.test_case "commit updates state" `Quick test_commit_updates_state;
        Alcotest.test_case "same-machine no transfer" `Quick test_same_machine_no_transfer;
        Alcotest.test_case "cross-machine transfer" `Quick test_cross_machine_transfer;
        Alcotest.test_case "transfer bills sender" `Quick test_commit_transfer_bills_sender;
        Alcotest.test_case "secondary data volume" `Quick test_secondary_data_volume;
        Alcotest.test_case "incoming contention" `Quick test_in_channel_contention;
        Alcotest.test_case "incoming serialisation" `Quick
          test_in_channel_serialisation_same_time;
        Alcotest.test_case "not_before respected" `Quick test_not_before_respected;
        Alcotest.test_case "plan rejects mapped task" `Quick test_plan_rejects_mapped_task;
        Alcotest.test_case "plan rejects unmapped parent" `Quick
          test_plan_rejects_unmapped_parent;
        Alcotest.test_case "exec contention" `Quick test_exec_machine_contention;
        Alcotest.test_case "totals_after" `Quick test_totals_after;
        Alcotest.test_case "validator accepts clean" `Quick
          test_validator_accepts_clean_schedule;
        Alcotest.test_case "validator incomplete" `Quick test_validator_detects_incomplete;
        Alcotest.test_case "validator orphan child" `Quick
          test_validator_detects_orphan_child;
        Alcotest.test_case "validator missing transfer" `Quick
          test_validator_detects_missing_transfer;
        Alcotest.test_case "validator wrong duration" `Quick
          test_validator_detects_wrong_duration;
        Alcotest.test_case "validator energy" `Quick test_validator_detects_energy_violation;
        Alcotest.test_case "validator time" `Quick test_validator_detects_time_violation;
        Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
        Alcotest.test_case "qcheck random commits" `Quick
          test_qcheck_random_commits_consistent;
        Alcotest.test_case "qcheck plan purity" `Quick test_qcheck_plan_purity;
        Alcotest.test_case "qcheck plan = oracle" `Quick test_qcheck_plan_matches_oracle;
        Alcotest.test_case "qcheck parent bound <= plan start" `Quick
          test_qcheck_bound_below_plan;
        Alcotest.test_case "qcheck machine_free_from = scan" `Quick
          test_qcheck_machine_free_from;
        Alcotest.test_case "qcheck frontier = list model" `Quick
          test_qcheck_frontier_matches_list_model;
        Alcotest.test_case "channel overlap rejected" `Quick
          test_validator_detects_channel_overlap;
        Alcotest.test_case "duplicate transfer caught" `Quick
          test_validator_detects_duplicate_transfer;
        Alcotest.test_case "stale plan raises" `Quick test_stale_plan_commit_raises;
        Alcotest.test_case "double commit rejected" `Quick test_double_commit_rejected;
        Alcotest.test_case "qcheck buffered commit = record commit" `Quick
          test_qcheck_buffered_commit_matches_record;
        Alcotest.test_case "buffered plan commits once" `Quick test_commit_planned_once;
        Alcotest.test_case "metrics consistency" `Quick test_metrics_consistency;
        Alcotest.test_case "metrics comm share" `Quick test_metrics_comm_share;
        Alcotest.test_case "frontier progression" `Quick test_frontier_progression;
      ] );
  ]
