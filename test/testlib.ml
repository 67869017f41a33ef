(* Shared fixtures for the test suites: tiny hand-built workloads whose
   every quantity can be checked by hand, plus generated mid-size scenarios
   for integration tests. *)

open Agrid_platform
open Agrid_workload

let rng ?(seed = 42) () = Agrid_prng.Splitmix64.of_int seed

(* A 4-task diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. *)
let diamond_dag () = Agrid_dag.Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* Hand-picked ETC over the full Case A machine set (machines 0,1 fast;
   2,3 slow); seconds. Rows = tasks. Values chosen to be exactly
   representable in 0.1 s cycles. *)
let diamond_etc () =
  Agrid_etc.Etc.of_matrix
    ~klasses:[| Machine.Fast; Machine.Fast; Machine.Slow; Machine.Slow |]
    [|
      [| 10.0; 12.0; 100.0; 110.0 |];
      [| 20.0; 18.0; 200.0; 190.0 |];
      [| 30.0; 33.0; 280.0; 300.0 |];
      [| 14.0; 16.0; 150.0; 140.0 |];
    |]

(* One megabit on every edge: 0.125 s on an 8 Mb/s fast-fast link. *)
let diamond_data () = [| 1e6; 1e6; 1e6; 1e6 |]

let diamond_spec () =
  let base = Spec.paper_scale ~seed:7 () in
  {
    base with
    Spec.n_tasks = 4;
    etc_params = Agrid_etc.Etc.default_params ~n_tasks:4;
    dag_params = Agrid_dag.Generate.default_params ~n:4;
    tau_seconds = 2000.;
  }

let diamond_workload ?(case = Grid.A) () =
  Workload.build (diamond_spec ()) ~etc:(diamond_etc ()) ~dag:(diamond_dag ())
    ~data_bits:(diamond_data ()) ~etc_index:0 ~dag_index:0 ~case

(* A generated scenario small enough for fast integration tests. *)
let small_spec ?(seed = 11) () = Spec.scaled ~seed ~factor:(48. /. 1024.) ()

let small_workload ?seed ?(case = Grid.A) ?(etc_index = 0) ?(dag_index = 0) () =
  Workload.build (small_spec ?seed ()) ~etc_index ~dag_index ~case

(* Alcotest helpers *)
let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let close_rel ?(rel = 1e-9) msg expected actual =
  let denom = Float.max 1e-30 (Float.abs expected) in
  if Float.abs (expected -. actual) /. denom > rel then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Naive substring search (tests only). *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Same task count and the same (src, dst) at every edge id: the parent
   and child orders follow from those. *)
let check_same_dag msg a b =
  let module Dag = Agrid_dag.Dag in
  Alcotest.(check int) (msg ^ ": tasks") (Dag.n_tasks a) (Dag.n_tasks b);
  Alcotest.(check int) (msg ^ ": edges") (Dag.n_edges a) (Dag.n_edges b);
  for e = 0 to Dag.n_edges a - 1 do
    Alcotest.(check (pair int int)) (Fmt.str "%s: edge %d" msg e) (Dag.edge a e) (Dag.edge b e)
  done

(* Reference timeline primitives for the planner oracle in test_schedule:
   the copy-on-write planner Schedule.plan used before its overlay rewrite
   fitted each transfer with [first_fit_joint] on private copies of the
   touched channels. Kept here, outside the library, as the differential
   reference. *)

let copy_timeline src =
  let t = Agrid_sched.Timeline.create () in
  List.iter
    (fun (start, stop) -> Agrid_sched.Timeline.insert t ~start ~stop)
    (Agrid_sched.Timeline.to_list src);
  t

(* Earliest start >= not_before with [start, start+duration) free on BOTH
   timelines. Alternates pushing the candidate past whichever timeline is
   busy; terminates because both walks are monotone. *)
let first_fit_joint a b ~not_before ~duration =
  if duration < 0 then invalid_arg "first_fit_joint: negative duration";
  if duration = 0 then not_before
  else begin
    let rec step candidate =
      let ca = Agrid_sched.Timeline.first_fit a ~not_before:candidate ~duration in
      let cb = Agrid_sched.Timeline.first_fit b ~not_before:ca ~duration in
      if cb = ca then ca else step cb
    in
    step not_before
  end

(* Append to [buf] everything a realized workload carries that a
   scheduler reads: the cycle table, the ETC bits, the edge list, every
   task's parent and child edge order, the data-size bits, tau and TSE.
   Two workloads append the same bytes iff they are bit-identical in
   all of these. *)
let digest_workload buf wl =
  let add_int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ' ' in
  let add_float f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
  let n = Agrid_workload.Workload.n_tasks wl and m = Agrid_workload.Workload.n_machines wl in
  add_int n;
  add_int m;
  add_int (Agrid_workload.Workload.tau wl);
  add_float (Agrid_workload.Workload.total_system_energy wl);
  Array.iter add_int (Agrid_workload.Workload.cycles wl);
  let etc = Agrid_workload.Workload.etc wl in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      add_float (Agrid_etc.Etc.seconds etc ~task:i ~machine:j)
    done
  done;
  let module Dag = Agrid_dag.Dag in
  let dag = Agrid_workload.Workload.dag wl in
  Dag.iter_edges
    (fun _ ~src ~dst ->
      add_int src;
      add_int dst)
    dag;
  for i = 0 to n - 1 do
    Buffer.add_char buf 'p';
    for k = 0 to Dag.in_degree dag i - 1 do
      add_int (Dag.parent dag i k);
      add_int (Dag.parent_edge dag i k)
    done;
    Buffer.add_char buf 'c';
    for k = 0 to Dag.out_degree dag i - 1 do
      add_int (Dag.child dag i k);
      add_int (Dag.child_edge dag i k)
    done
  done;
  for e = 0 to Agrid_dag.Dag.n_edges dag - 1 do
    add_float (Agrid_workload.Workload.edge_bits wl ~edge:e ~parent_version:Agrid_workload.Version.Primary)
  done

let workload_digest wl =
  let buf = Buffer.create 4096 in
  digest_workload buf wl;
  Digest.string (Buffer.contents buf)

(* The agrid-traffic/1 text of a traffic spec: the printer half of the
   spec's print/parse fixed point, which the program only parses. *)
let traffic_spec_to_string (spec : Agrid_tenant.Traffic.spec) =
  let module Json = Agrid_obs.Json in
  let module Tenant = Agrid_tenant.Tenant in
  let module Feasibility = Agrid_core.Feasibility in
  let tenant_to_json (ts : Agrid_tenant.Traffic.tenant_stream) =
    let t = ts.ts_tenant in
    let proc =
      match ts.ts_process with
      | Agrid_tenant.Arrivals.Poisson rate -> [ ("rate", Json.Flt rate) ]
      | Agrid_tenant.Arrivals.Trace times ->
          [ ("trace", Json.Arr (List.map (fun x -> Json.Int x) times)) ]
    in
    let quota =
      (match t.Tenant.quota.Feasibility.q_energy with
      | None -> []
      | Some e -> [ ("energy_quota", Json.Flt e) ])
      @
      match t.Tenant.quota.Feasibility.q_machines with
      | None -> []
      | Some m -> [ ("machines", Json.Int m) ]
    in
    Json.Obj
      ([
         ("id", Json.Str t.Tenant.id);
         ("priority", Json.Str (Tenant.priority_to_string t.Tenant.priority));
       ]
      @ proc @ quota)
  in
  let case = match spec.case with Grid.A -> "A" | Grid.B -> "B" | Grid.C -> "C" in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Str Agrid_tenant.Traffic.schema);
          ("seed", Json.Int spec.seed);
          ("horizon", Json.Int spec.horizon);
          ("scale", Json.Flt spec.scale);
          ("case", Json.Str case);
          ("chunk", Json.Int spec.chunk);
        ]
       @ (match spec.events with
         | [] -> []
         | evs -> [ ("events", Json.Str (Agrid_churn.Event.trace_to_string evs)) ])
       @ [ ("tenants", Json.Arr (List.map tenant_to_json spec.tenants)) ]))

(* Bitwise equality of two job results on every field except
   [wall_seconds] (floats compared through their bit patterns). *)
let job_equal_modulo_wall (a : Agrid_serve.Job.result) (b : Agrid_serve.Job.result) =
  let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  a.status = b.status && a.completed = b.completed && a.t100 = b.t100
  && a.mapped = b.mapped && a.aet = b.aet
  && float_bits_equal a.tec b.tec
  && Array.length a.energy_remaining = Array.length b.energy_remaining
  && Array.for_all2 float_bits_equal a.energy_remaining b.energy_remaining
  && a.final_clock = b.final_clock
  && a.n_discarded = b.n_discarded
  && float_bits_equal a.sunk_energy b.sunk_energy
