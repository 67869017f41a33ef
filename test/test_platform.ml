open Agrid_platform

let test_units_roundtrip () =
  Alcotest.(check int) "10 cycles per second" 10 Units.cycles_per_second;
  Testlib.close "seconds of cycles" 3.4 (Units.seconds_of_cycles 34);
  Alcotest.(check int) "cycles of seconds" 34 (Units.cycles_of_seconds 3.4);
  Alcotest.(check int) "rounds up" 35 (Units.cycles_of_seconds 3.41);
  Alcotest.(check int) "zero" 0 (Units.cycles_of_seconds 0.);
  Alcotest.(check int) "tiny positive -> 1 cycle" 1 (Units.cycles_of_seconds 1e-9)

let test_units_negative () =
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Units.cycles_of_seconds: negative duration") (fun () ->
      ignore (Units.cycles_of_seconds (-1.)))

(* Cycle counts of 2^62 (about 4.61e18) or more do not fit an int: refused,
   not wrapped to a one-cycle duration. *)
let test_units_too_long () =
  Alcotest.(check int) "largest spelled count fits" 4_600_000_000_000_000_000
    (Units.cycles_of_seconds 4.6e17);
  List.iter
    (fun s ->
      Alcotest.check_raises (Fmt.str "%g s" s)
        (Invalid_argument "Units.cycles_of_seconds: duration too long") (fun () ->
          ignore (Units.cycles_of_seconds s)))
    [ 4.62e17; 1e18; 1e300; Float.infinity ]

let test_table2_constants () =
  let f = Machine.fast_profile and s = Machine.slow_profile in
  Testlib.close "fast B" 580. f.Machine.battery;
  Testlib.close "fast E" 0.1 f.Machine.compute_rate;
  Testlib.close "fast C" 0.2 f.Machine.transmit_rate;
  Testlib.close "fast BW" 8e6 f.Machine.bandwidth;
  Testlib.close "slow B" 58. s.Machine.battery;
  Testlib.close "slow E" 0.001 s.Machine.compute_rate;
  Testlib.close "slow C" 0.002 s.Machine.transmit_rate;
  Testlib.close "slow BW" 4e6 s.Machine.bandwidth

let test_battery_scaling () =
  let half = Machine.scale_battery 0.5 Machine.fast_profile in
  Testlib.close "scaled battery" 290. half.Machine.battery;
  Testlib.close "rate unchanged" 0.1 half.Machine.compute_rate;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Machine.scale_battery: factor must be positive") (fun () ->
      ignore (Machine.scale_battery 0. Machine.fast_profile))

let test_energy_rates () =
  Testlib.close "compute energy" 1.
    (Machine.compute_energy Machine.fast_profile ~seconds:10.);
  Testlib.close "transmit energy" 2.
    (Machine.transmit_energy Machine.fast_profile ~seconds:10.)

let count_by_klass g k = Grid.count_klass g k

let test_table1_configurations () =
  let a = Grid.of_case Grid.A and b = Grid.of_case Grid.B and c = Grid.of_case Grid.C in
  Alcotest.(check int) "A machines" 4 (Grid.n_machines a);
  Alcotest.(check int) "A fast" 2 (count_by_klass a Machine.Fast);
  Alcotest.(check int) "A slow" 2 (count_by_klass a Machine.Slow);
  Alcotest.(check int) "B machines" 3 (Grid.n_machines b);
  Alcotest.(check int) "B fast" 2 (count_by_klass b Machine.Fast);
  Alcotest.(check int) "B slow" 1 (count_by_klass b Machine.Slow);
  Alcotest.(check int) "C machines" 3 (Grid.n_machines c);
  Alcotest.(check int) "C fast" 1 (count_by_klass c Machine.Fast);
  Alcotest.(check int) "C slow" 2 (count_by_klass c Machine.Slow)

let test_machine_zero_is_fast () =
  List.iter
    (fun case ->
      let g = Grid.of_case case in
      Alcotest.(check bool)
        (Grid.case_name case ^ " reference machine fast")
        true
        (Machine.equal_klass (Grid.machine g 0).Machine.klass Machine.Fast))
    Grid.all_cases

let test_total_system_energy () =
  Testlib.close "TSE case A" 1276. (Grid.total_system_energy (Grid.of_case Grid.A));
  Testlib.close "TSE case B" 1218. (Grid.total_system_energy (Grid.of_case Grid.B));
  Testlib.close "TSE case C" 696. (Grid.total_system_energy (Grid.of_case Grid.C))

let test_min_bandwidth () =
  Testlib.close "min bw" 4e6 (Grid.min_bandwidth (Grid.of_case Grid.A))

let test_grid_battery_scale () =
  let g = Grid.of_case ~battery_scale:0.1 Grid.A in
  Testlib.close "scaled TSE" 127.6 (Grid.total_system_energy g) ~eps:1e-9

let test_cmt () =
  let g = Grid.of_case Grid.A in
  (* machines 0,1 fast (8 Mb/s); 2,3 slow (4 Mb/s) *)
  Testlib.close "fast-fast" (1. /. 8e6) (Comm.cmt g ~src:0 ~dst:1);
  Testlib.close "fast-slow" (1. /. 4e6) (Comm.cmt g ~src:0 ~dst:2);
  Testlib.close "slow-slow" (1. /. 4e6) (Comm.cmt g ~src:2 ~dst:3);
  Testlib.close "same machine" 0. (Comm.cmt g ~src:1 ~dst:1)

let test_transfer_cycles () =
  let g = Grid.of_case Grid.A in
  (* 1 Mb over 8 Mb/s = 0.125 s = 2 cycles (ceil) *)
  Alcotest.(check int) "fast-fast 1Mb" 2 (Comm.transfer_cycles g ~src:0 ~dst:1 ~bits:1e6);
  (* 1 Mb over 4 Mb/s = 0.25 s = 3 cycles (ceil) *)
  Alcotest.(check int) "fast-slow 1Mb" 3 (Comm.transfer_cycles g ~src:0 ~dst:2 ~bits:1e6);
  Alcotest.(check int) "same machine" 0 (Comm.transfer_cycles g ~src:2 ~dst:2 ~bits:1e9)

let test_transfer_energy () =
  let g = Grid.of_case Grid.A in
  (* 2 cycles = 0.2 s at fast transmit rate 0.2 -> 0.04 units *)
  Testlib.close "fast sender" 0.04 (Comm.transfer_energy g ~src:0 ~dst:1 ~bits:1e6);
  (* slow sender: 3 cycles = 0.3s at 0.002 -> 0.0006 *)
  Testlib.close "slow sender" 6e-4 (Comm.transfer_energy g ~src:2 ~dst:0 ~bits:1e6);
  Testlib.close "same machine free" 0. (Comm.transfer_energy g ~src:0 ~dst:0 ~bits:1e6)

let test_worst_case_energy () =
  let g = Grid.of_case Grid.A in
  (* worst link is 4 Mb/s: 1 Mb -> 0.25s -> 3 cycles; from fast: 0.3*0.2 = 0.06 *)
  Testlib.close "worst case from fast" 0.06 (Comm.worst_case_energy g ~src:0 ~bits:1e6);
  (* and it must dominate the exact cost to any destination *)
  for dst = 0 to 3 do
    if Comm.worst_case_energy g ~src:0 ~bits:1e6 < Comm.transfer_energy g ~src:0 ~dst ~bits:1e6
    then Alcotest.failf "worst case underestimates dst %d" dst
  done

(* The rate table's kernels against the scalar functions, bit for bit:
   every machine pair of every case (degraded links included), edge
   volumes from nothing to far past a cycle, and the scalar argument
   check on a negative volume. *)
let table_matches_scalar =
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 2) (int_range 0 3)
        (oneof [ return 0.; float_range 0. 1e4; float_range 0. 1e9; float_range 1e-3 1. ]))
  in
  Testlib.qcheck_case ~count:500 "rate table = scalar pricing (qcheck)" gen
    (fun (case, degraded, bits) ->
      let grid = Grid.of_case (List.nth Grid.all_cases case) in
      let grid =
        if degraded < Grid.n_machines grid then
          Grid.scale_bandwidth grid ~machine:degraded ~factor:0.37
        else grid
      in
      let tb = Comm.table grid in
      let n = Grid.n_machines grid in
      let a = [| bits |] and out = [| 0. |] in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let c = Comm.transfer_cycles_at tb ~src ~dst a 0 in
          if c <> Comm.transfer_cycles grid ~src ~dst ~bits then ok := false;
          Comm.transfer_energy_into tb ~src ~cycles:c out 0;
          let e = if src = dst then 0. else out.(0) in
          if not (same e (Comm.transfer_energy grid ~src ~dst ~bits)) then ok := false
        done;
        let wc = Comm.worst_case_cycles_at tb a 0 in
        if wc <> Comm.worst_case_cycles grid ~bits then ok := false;
        Comm.transfer_energy_into tb ~src ~cycles:wc out 0;
        if not (same out.(0) (Comm.worst_case_energy grid ~src ~bits)) then ok := false;
        Comm.exec_energy_into tb ~machine:src ~cycles:wc out 0;
        let exec =
          Machine.compute_energy (Grid.machine grid src)
            ~seconds:(Units.seconds_of_cycles wc)
        in
        if not (same out.(0) exec) then ok := false
      done;
      (match Comm.transfer_cycles_at tb ~src:0 ~dst:(n - 1) [| -1. |] 0 with
      | _ -> ok := false
      | exception Invalid_argument _ -> ());
      !ok)

let suites =
  [
    ( "platform",
      [
        Alcotest.test_case "units roundtrip" `Quick test_units_roundtrip;
        Alcotest.test_case "units negative" `Quick test_units_negative;
        Alcotest.test_case "table 2 constants" `Quick test_table2_constants;
        Alcotest.test_case "battery scaling" `Quick test_battery_scaling;
        Alcotest.test_case "energy rates" `Quick test_energy_rates;
        Alcotest.test_case "table 1 configurations" `Quick test_table1_configurations;
        Alcotest.test_case "machine 0 is fast" `Quick test_machine_zero_is_fast;
        Alcotest.test_case "total system energy" `Quick test_total_system_energy;
        Alcotest.test_case "min bandwidth" `Quick test_min_bandwidth;
        Alcotest.test_case "grid battery scale" `Quick test_grid_battery_scale;
        Alcotest.test_case "CMT" `Quick test_cmt;
        Alcotest.test_case "transfer cycles" `Quick test_transfer_cycles;
        Alcotest.test_case "transfer energy" `Quick test_transfer_energy;
        Alcotest.test_case "worst-case comm energy" `Quick test_worst_case_energy;
        Alcotest.test_case "units refuse counts past an int" `Quick test_units_too_long;
        table_matches_scalar;
      ] );
  ]
