open Agrid_platform
open Agrid_workload

let test_spec_paper_scale () =
  let s = Spec.paper_scale () in
  Alcotest.(check int) "1024 tasks" 1024 s.Spec.n_tasks;
  Testlib.close "tau" 34_075. s.Spec.tau_seconds;
  Alcotest.(check int) "tau cycles" 340_750 (Spec.tau_cycles s);
  Spec.validate s

let test_spec_scaling_proportional () =
  let s = Spec.scaled ~factor:0.125 () in
  Alcotest.(check int) "128 tasks" 128 s.Spec.n_tasks;
  Testlib.close "battery scale" 0.125 s.Spec.battery_scale;
  Testlib.close "tau scaled" (34_075. *. 0.125) s.Spec.tau_seconds;
  Spec.validate s

let test_spec_scaling_bounds () =
  Alcotest.check_raises "factor 0" (Invalid_argument "Spec.scaled: factor must be in (0, 1]")
    (fun () -> ignore (Spec.scaled ~factor:0. ()))

let test_spec_validate_catches_mismatch () =
  let s = Spec.paper_scale () in
  let bad = { s with Spec.n_tasks = 100 } in
  Alcotest.check_raises "mismatch" (Invalid_argument "Spec: etc_params.n_tasks mismatch")
    (fun () -> Spec.validate bad)

let test_build_deterministic () =
  let w1 = Testlib.small_workload () and w2 = Testlib.small_workload () in
  Alcotest.(check int) "same tasks" (Workload.n_tasks w1) (Workload.n_tasks w2);
  Testlib.check_same_dag "same dag" (Workload.dag w1) (Workload.dag w2);
  for i = 0 to Workload.n_tasks w1 - 1 do
    for j = 0 to Workload.n_machines w1 - 1 do
      Alcotest.(check int) "same cycles"
        (Workload.exec_cycles w1 ~task:i ~machine:j ~version:Version.Primary)
        (Workload.exec_cycles w2 ~task:i ~machine:j ~version:Version.Primary)
    done
  done

let test_etc_shared_across_cases () =
  (* the same etc_index must give identical ETC columns in every case for
     the machines they share (machine 0 in particular) *)
  let wa = Testlib.small_workload ~case:Grid.A () in
  let wb = Testlib.small_workload ~case:Grid.B () in
  let wc = Testlib.small_workload ~case:Grid.C () in
  for i = 0 to Workload.n_tasks wa - 1 do
    Testlib.close "A vs B machine 0"
      (Agrid_etc.Etc.seconds (Workload.etc wa) ~task:i ~machine:0)
      (Agrid_etc.Etc.seconds (Workload.etc wb) ~task:i ~machine:0);
    Testlib.close "A vs C machine 0"
      (Agrid_etc.Etc.seconds (Workload.etc wa) ~task:i ~machine:0)
      (Agrid_etc.Etc.seconds (Workload.etc wc) ~task:i ~machine:0);
    (* case C machine 1 = case A machine 2 (first slow) *)
    Testlib.close "A slow vs C"
      (Agrid_etc.Etc.seconds (Workload.etc wa) ~task:i ~machine:2)
      (Agrid_etc.Etc.seconds (Workload.etc wc) ~task:i ~machine:1)
  done

let test_different_indices_differ () =
  let w0 = Testlib.small_workload ~etc_index:0 () in
  let w1 = Testlib.small_workload ~etc_index:1 () in
  let differs = ref false in
  for i = 0 to Workload.n_tasks w0 - 1 do
    if
      Workload.exec_cycles w0 ~task:i ~machine:0 ~version:Version.Primary
      <> Workload.exec_cycles w1 ~task:i ~machine:0 ~version:Version.Primary
    then differs := true
  done;
  Alcotest.(check bool) "etc 0 <> etc 1" true !differs

let test_version_cycles () =
  let w = Testlib.diamond_workload () in
  (* task 0 on machine 0: 10 s = 100 cycles primary, 10 cycles secondary *)
  Alcotest.(check int) "primary" 100
    (Workload.exec_cycles w ~task:0 ~machine:0 ~version:Version.Primary);
  Alcotest.(check int) "secondary" 10
    (Workload.exec_cycles w ~task:0 ~machine:0 ~version:Version.Secondary)

let test_secondary_at_least_one_cycle () =
  let w = Testlib.diamond_workload () in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if Workload.exec_cycles w ~task:i ~machine:j ~version:Version.Secondary < 1 then
        Alcotest.fail "secondary below 1 cycle"
    done
  done

let test_exec_energy () =
  let w = Testlib.diamond_workload () in
  (* task 0 machine 0: 100 cycles = 10 s at 0.1 units/s = 1.0 units *)
  Testlib.close "primary energy" 1.
    (Workload.exec_energy w ~task:0 ~machine:0 ~version:Version.Primary);
  Testlib.close "secondary energy" 0.1
    (Workload.exec_energy w ~task:0 ~machine:0 ~version:Version.Secondary);
  (* task 0 machine 2 (slow): 100 s at 0.001 -> 0.1 units *)
  Testlib.close "slow energy" 0.1
    (Workload.exec_energy w ~task:0 ~machine:2 ~version:Version.Primary)

let test_edge_bits_versions () =
  let w = Testlib.diamond_workload () in
  Testlib.close "primary volume" 1e6 (Workload.edge_bits w ~edge:0 ~parent_version:Version.Primary);
  Testlib.close "secondary volume" 1e5
    (Workload.edge_bits w ~edge:0 ~parent_version:Version.Secondary)

let test_worst_case_child_comm () =
  let w = Testlib.diamond_workload () in
  (* task 0 has 2 children, 1 Mb each primary; worst link 4 Mb/s -> 3 cycles
     = 0.3 s; from fast machine 0 at 0.2 units/s = 0.06 each, 0.12 total *)
  Testlib.close "worst-case comm" 0.12
    (Workload.worst_case_child_comm_energy w ~task:0 ~machine:0 ~version:Version.Primary);
  (* leaf task has no children *)
  Testlib.close "leaf" 0.
    (Workload.worst_case_child_comm_energy w ~task:3 ~machine:0 ~version:Version.Primary)

let test_tse_scaled () =
  let w = Testlib.small_workload () in
  let expected = 1276. *. (Workload.spec w).Spec.battery_scale in
  Testlib.close_rel "scaled TSE" expected (Workload.total_system_energy w) ~rel:1e-9

let test_build_validation () =
  let spec = Testlib.diamond_spec () in
  Alcotest.check_raises "dag mismatch"
    (Invalid_argument "Workload.build: DAG task count does not match spec") (fun () ->
      ignore
        (Workload.build spec
           ~etc:(Testlib.diamond_etc ())
           ~dag:(Agrid_dag.Dag.of_edges ~n:3 [])
           ~etc_index:0 ~dag_index:0 ~case:Grid.A))

(* ---- serialization ---- *)

let roundtrip ?(case = Grid.A) spec ~etc_index ~dag_index =
  let s = Serialize.to_string spec ~etc_index ~dag_index ~case in
  (Serialize.realize (Serialize.Pinned s), Workload.build spec ~etc_index ~dag_index ~case)

let test_serialize_roundtrip_exact () =
  let spec = Testlib.small_spec () in
  let loaded, direct = roundtrip spec ~etc_index:1 ~dag_index:2 in
  Alcotest.(check int) "tasks" (Workload.n_tasks direct) (Workload.n_tasks loaded);
  Alcotest.(check int) "tau" (Workload.tau direct) (Workload.tau loaded);
  Testlib.check_same_dag "dag edges" (Workload.dag direct) (Workload.dag loaded);
  for i = 0 to Workload.n_tasks direct - 1 do
    for j = 0 to Workload.n_machines direct - 1 do
      Testlib.close "etc entry"
        (Agrid_etc.Etc.seconds (Workload.etc direct) ~task:i ~machine:j)
        (Agrid_etc.Etc.seconds (Workload.etc loaded) ~task:i ~machine:j)
    done
  done;
  for e = 0 to Agrid_dag.Dag.n_edges (Workload.dag direct) - 1 do
    Testlib.close "data bits"
      (Workload.edge_bits direct ~edge:e ~parent_version:Version.Primary)
      (Workload.edge_bits loaded ~edge:e ~parent_version:Version.Primary)
  done

let test_serialize_roundtrip_cases () =
  let spec = Testlib.small_spec () in
  List.iter
    (fun case ->
      let loaded, direct = roundtrip ~case spec ~etc_index:0 ~dag_index:0 in
      Alcotest.(check int)
        (Grid.case_name case ^ " machines")
        (Workload.n_machines direct) (Workload.n_machines loaded))
    Grid.all_cases

let test_serialize_same_schedule () =
  (* the strongest roundtrip check: SLRH produces the identical schedule on
     the loaded workload *)
  let spec = Testlib.small_spec () in
  let loaded, direct = roundtrip spec ~etc_index:0 ~dag_index:0 in
  let weights = Agrid_core.Objective.make_weights ~alpha:0.3 ~beta:0.3 in
  let run wl = Agrid_core.Slrh.run (Agrid_core.Slrh.default_params weights) wl in
  let a = run direct and b = run loaded in
  Alcotest.(check int) "same T100"
    (Agrid_sched.Schedule.n_primary a.Agrid_core.Slrh.schedule)
    (Agrid_sched.Schedule.n_primary b.Agrid_core.Slrh.schedule);
  Alcotest.(check int) "same AET"
    (Agrid_sched.Schedule.aet a.Agrid_core.Slrh.schedule)
    (Agrid_sched.Schedule.aet b.Agrid_core.Slrh.schedule)

let test_serialize_file_roundtrip () =
  let spec = Testlib.small_spec () in
  let path = Filename.temp_file "agrid_scenario" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_file path spec ~etc_index:0 ~dag_index:0 ~case:Grid.B;
      let wl = Serialize.load_file path in
      Alcotest.(check int) "machines" 3 (Workload.n_machines wl))

let test_serialize_rejects_garbage () =
  let attempt s =
    match Serialize.realize (Serialize.Pinned s) with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Serialize.Parse_error _ -> ()
  in
  attempt "";
  attempt "not a scenario";
  attempt "agrid-scenario v1\nseed x";
  (* truncated: header only *)
  attempt "agrid-scenario v1\nseed 1\n"

let test_serialize_tolerates_comments () =
  let spec = Testlib.small_spec () in
  let s = Serialize.to_string spec ~etc_index:0 ~dag_index:0 ~case:Grid.A in
  let with_comments = "# a pinned scenario\n\n" ^ s in
  let wl = Serialize.realize (Serialize.Pinned with_comments) in
  Alcotest.(check int) "loads with comments" spec.Spec.n_tasks (Workload.n_tasks wl)

(* ---- bit-identity oracle for realize ----

   One digest over everything a realized workload carries that a
   scheduler reads: the cycle table, the ETC bits, the edge list, every
   task's parent and child edge order, the data-size bits, tau and TSE.
   It covers generated scenarios over seeds x scales x cases x indices,
   two raw Gamma streams (shape < 1 takes the boost path, shape >= 1 the
   plain Marsaglia-Tsang one) and pinned round trips. The expected
   digests were recorded before the realize layer was rewritten; any
   change to the PRNG, the generators, the DAG build, the cycle pricing
   or the pinned decoder that moves one bit fails here. *)

let generated_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun seed ->
      List.iter
        (fun scale ->
          List.iter
            (fun case ->
              List.iter
                (fun (etc_index, dag_index) ->
                  Testlib.digest_workload buf
                    (Serialize.realize
                       (Serialize.Generated { seed; scale; etc_index; dag_index; case })))
                [ (0, 0); (1, 2); (3, 1) ])
            Grid.all_cases)
        [ 0.03; 0.125; 0.5; 1.0 ])
    [ 1; 7; 2004 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let gamma_digest () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (seed, shape) ->
      let rng = Agrid_prng.Splitmix64.of_int seed in
      for _ = 1 to 2000 do
        Buffer.add_int64_le buf
          (Int64.bits_of_float (Agrid_prng.Dist.gamma rng ~shape ~scale:1.5))
      done;
      Buffer.add_int64_le buf (Agrid_prng.Splitmix64.state rng))
    [ (3, 0.3); (4, 0.9); (5, 1.0); (6, 11.89) ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (seed, factor, case, etc_index, dag_index) ->
      let spec = Spec.scaled ~seed ~factor () in
      let text = Serialize.to_string spec ~etc_index ~dag_index ~case in
      Testlib.digest_workload buf (Serialize.realize (Serialize.Pinned text)))
    [
      (1, 0.03, Grid.A, 0, 0);
      (9, 0.125, Grid.B, 2, 5);
      (77, 0.125, Grid.C, 1, 2);
      (1234, 0.5, Grid.A, 4, 4);
    ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_realize_oracle () =
  Alcotest.(check string) "generated realize digest" "3a9a94d9b2521583fa8f99fa5cfc865e" (generated_digest ());
  Alcotest.(check string) "gamma stream digest" "6e3d307f0c610fbba637d1f40c795020" (gamma_digest ());
  Alcotest.(check string) "pinned realize digest" "40b41915a0e07203e80709c144ce357e" (pinned_digest ())

let test_version_module () =
  Alcotest.(check bool) "primary" true (Version.is_primary Version.Primary);
  Alcotest.(check bool) "secondary" false (Version.is_primary Version.Secondary);
  Alcotest.(check int) "compare" (-1) (Version.compare Version.Primary Version.Secondary);
  Alcotest.(check bool) "equal" true (Version.equal Version.Primary Version.Primary);
  Alcotest.(check string) "to_string" "secondary" (Version.to_string Version.Secondary)

(* The flat cycle table against the ETC-derived formula, both versions,
   every (task, machine): primary = cycles_of_seconds (ETC seconds),
   secondary = max 1 (ceil (fraction * primary)), energy = the machine's
   compute rate over the occupied cycles. *)
let test_cycle_table_formula () =
  let wl = Testlib.small_workload ~seed:11 () in
  let etc = Workload.etc wl in
  let fraction = (Workload.spec wl).Spec.secondary_fraction in
  for task = 0 to Workload.n_tasks wl - 1 do
    for machine = 0 to Workload.n_machines wl - 1 do
      let primary = Units.cycles_of_seconds (Agrid_etc.Etc.seconds etc ~task ~machine) in
      let secondary =
        max 1 (int_of_float (Float.ceil (float_of_int primary *. fraction)))
      in
      let rate = (Grid.machine (Workload.grid wl) machine).Machine.compute_rate in
      List.iter
        (fun (version, cycles) ->
          let label = Fmt.str "task %d machine %d %a" task machine Version.pp version in
          Alcotest.(check int) (label ^ " cycles") cycles
            (Workload.exec_cycles wl ~task ~machine ~version);
          Alcotest.(check int64) (label ^ " energy (bits)")
            (Int64.bits_of_float (rate *. Units.seconds_of_cycles cycles))
            (Int64.bits_of_float (Workload.exec_energy wl ~task ~machine ~version)))
        [ (Version.Primary, primary); (Version.Secondary, secondary) ]
    done
  done

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "paper-scale spec" `Quick test_spec_paper_scale;
        Alcotest.test_case "proportional scaling" `Quick test_spec_scaling_proportional;
        Alcotest.test_case "scaling bounds" `Quick test_spec_scaling_bounds;
        Alcotest.test_case "spec validation" `Quick test_spec_validate_catches_mismatch;
        Alcotest.test_case "deterministic build" `Quick test_build_deterministic;
        Alcotest.test_case "ETC shared across cases" `Quick test_etc_shared_across_cases;
        Alcotest.test_case "indices differ" `Quick test_different_indices_differ;
        Alcotest.test_case "version cycles" `Quick test_version_cycles;
        Alcotest.test_case "secondary >= 1 cycle" `Quick test_secondary_at_least_one_cycle;
        Alcotest.test_case "exec energy" `Quick test_exec_energy;
        Alcotest.test_case "edge bits by version" `Quick test_edge_bits_versions;
        Alcotest.test_case "worst-case child comm" `Quick test_worst_case_child_comm;
        Alcotest.test_case "TSE scaled" `Quick test_tse_scaled;
        Alcotest.test_case "build validation" `Quick test_build_validation;
        Alcotest.test_case "version module" `Quick test_version_module;
        Alcotest.test_case "serialize roundtrip exact" `Quick test_serialize_roundtrip_exact;
        Alcotest.test_case "serialize all cases" `Quick test_serialize_roundtrip_cases;
        Alcotest.test_case "serialize same schedule" `Quick test_serialize_same_schedule;
        Alcotest.test_case "serialize file roundtrip" `Quick test_serialize_file_roundtrip;
        Alcotest.test_case "serialize rejects garbage" `Quick test_serialize_rejects_garbage;
        Alcotest.test_case "serialize tolerates comments" `Quick
          test_serialize_tolerates_comments;
        Alcotest.test_case "realize bit-identity oracle" `Quick test_realize_oracle;
        Alcotest.test_case "cycle table = ETC formula" `Quick test_cycle_table_formula;
      ] );
  ]
