(* The service benchmark's command line.

     svcbench --workload W --seed N --seconds S --trace 0|1
         one run; the last stdout line is the JSON result
     svcbench --steady N [--workload W] [--seconds S]
         N interleaved pairs of runs (set A, set B) per workload, with
         per-set medians, quartiles and the verdict against the bounds
         in BENCHMARK.json
     svcbench --self-test
         tiny runs checking metric names and units, the seed, and that an
         injected mismatch fails the run

   Run it through run.sh, which builds it and the agrid binary first. *)

module Json = Agrid_obs.Json

let workload = ref ""
let seed = ref 1
let seconds = ref 30.
let trace = ref 0
let agrid = ref "_build/default/bin/agrid.exe"
let steady = ref 0
let self_test = ref false
let print_inputs = ref false
let inject_mismatch = ref false

let args =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME  serve-closed | serve-pinned-repeat | fleet-closed" );
    ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S  measured window (default 30)");
    ("--trace", Arg.Set_int trace, "0|1  1 = per-layer traced run");
    ("--agrid", Arg.Set_string agrid, "PATH  the agrid binary (default: dune's build)");
    ("--steady", Arg.Set_int steady, "N  steadiness check: N interleaved pairs per workload");
    ("--self-test", Arg.Set self_test, " check the benchmark itself at tiny size");
    ("--print-inputs", Arg.Set print_inputs, " print a digest of the generated inputs");
    ("--inject-mismatch", Arg.Set inject_mismatch, " corrupt one expected result");
  ]

let die fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "svcbench: %s@." m;
      exit 2)
    fmt

let find_workload name =
  match List.assoc_opt name Gen.workloads with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map fst Gen.workloads))

(* ---- BENCHMARK.json ------------------------------------------------------ *)

type spec_metric = { m_name : string; m_unit : string; m_better : string; m_bound : float }

let read_spec () =
  let text =
    match open_in_bin "BENCHMARK.json" with
    | exception Sys_error _ -> die "BENCHMARK.json not found in the current directory"
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j =
    match Json.parse_opt text with Some j -> j | None -> die "BENCHMARK.json does not parse"
  in
  let section key =
    List.map
      (fun m ->
        {
          m_name = Option.value ~default:"" (Json.get_string "name" m);
          m_unit = Option.value ~default:"" (Json.get_string "unit" m);
          m_better = Option.value ~default:"" (Json.get_string "better" m);
          m_bound = Option.value ~default:nan (Json.get_float "bound" m);
        })
      (Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list))
  in
  (section "end_to_end", section "per_layer")

(* ---- child runs of this program ----------------------------------------- *)

(* Run this executable with [argv]; its exit code and last stdout line.
   Its stderr goes to [err_path]. *)
let run_self ?(err_path = "/dev/null") argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: argv)) devnull out_w err in
  Unix.close out_w;
  Unix.close devnull;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let rec last acc =
    match input_line ic with
    | l -> last (if String.trim l = "" then acc else l)
    | exception End_of_file -> acc
  in
  let line = last "" in
  close_in ic;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255 in
  (code, line)

(* The result line's JSON and its metrics as (name, value, unit). *)
let result_metrics line =
  match Json.parse_opt line with
  | None -> None
  | Some j -> (
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
          let metric (name, m) =
            ( name,
              Option.value ~default:nan (Json.get_float "value" m),
              Option.value ~default:"" (Json.get_string "unit" m) )
          in
          Some (j, List.map metric ms)
      | _ -> None)

let correct j = Json.member "correct" j = Some (Json.Bool true)

let run_args ~w ~seed ~seconds ~trace extra =
  [
    "--workload"; w;
    "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; string_of_int trace;
    "--agrid"; !agrid;
  ]
  @ extra

(* ---- steadiness --------------------------------------------------------- *)

let spread a =
  let q1, q3 = Stat.quartiles a in
  (q3 -. q1) /. Stat.median a

let steadiness n =
  let e2e, _ = read_spec () in
  let names =
    match !workload with
    | "" -> List.map fst Gen.workloads
    | w ->
        ignore (find_workload w);
        [ w ]
  in
  let all_agree = ref true in
  Bench.mkdir_p ".svcbench_run";
  let err_path = Filename.concat ".svcbench_run" "steady.err" in
  List.iter
    (fun w ->
      let sets = [| Hashtbl.create 8; Hashtbl.create 8 |] in
      let add set name v =
        let prev = Option.value ~default:[] (Hashtbl.find_opt sets.(set) name) in
        Hashtbl.replace sets.(set) name (v :: prev)
      in
      for i = 0 to n - 1 do
        let order = if i mod 2 = 0 then [ 0; 1 ] else [ 1; 0 ] in
        List.iter
          (fun set ->
            let seed = (2 * i) + set + 1 in
            let code, line =
              run_self ~err_path (run_args ~w ~seed ~seconds:!seconds ~trace:0 [])
            in
            let err = Bench.read_file err_path in
            add set "host.steal_pct" (Bench.number_before err "% CPU stolen");
            add set "host.probe_ms" (Bench.number_before err " ms after");
            match result_metrics line with
            | Some (j, ms) when code = 0 && correct j ->
                List.iter (fun (name, v, _) -> add set name v) ms
            | _ ->
                all_agree := false;
                Fmt.pr "%s seed %d: run failed (exit %d): %s@." w seed code line)
          order
      done;
      Fmt.pr "@.%s: %d runs per set, %g s each (set A seeds 1,3,5..., set B seeds 2,4,6...)@." w
        n !seconds;
      Fmt.pr "%-16s %11s %11s %11s | %11s %11s %11s | %8s %8s %8s %8s %6s  %s@." "metric" "A q1"
        "A median" "A q3" "B q1" "B median" "B q3" "spread A" "spread B" "spread" "B vs A" "bound"
        "verdict";
      List.iter
        (fun m ->
          let get set =
            Array.of_list (Option.value ~default:[] (Hashtbl.find_opt sets.(set) m.m_name))
          in
          let a = get 0 and b = get 1 in
          let ma = Stat.median a and mb = Stat.median b in
          let qa1, qa3 = Stat.quartiles a and qb1, qb3 = Stat.quartiles b in
          (* [spread] pools both sets: the spread over all 2N seeds *)
          let spread_a = spread a and spread_b = spread b and spread = spread (Array.append a b) in
          (* how much worse one set's median is than the other's *)
          let worse x y = if m.m_better = "lower" then (y -. x) /. x else (x -. y) /. x in
          let drift = Float.max (worse ma mb) (worse mb ma) in
          let spread_ok =
            m.m_name = "setup_s"
            || (spread_a <= m.m_bound && spread_b <= m.m_bound && spread <= m.m_bound)
          in
          let ok = drift <= m.m_bound && spread_ok in
          if not ok then all_agree := false;
          Fmt.pr "%-16s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g | %8.4f %8.4f %8.4f %8.4f %6.3f  %s@."
            m.m_name qa1 ma qa3 qb1 mb qb3 spread_a spread_b spread drift m.m_bound
            (if ok then "agree" else "DISAGREE"))
        e2e;
      (* the host, not the program: a slow set with more CPU stolen by the
         hypervisor is a noisy host *)
      List.iter
        (fun name ->
          let med set =
            Stat.median
              (Array.of_list (Option.value ~default:[] (Hashtbl.find_opt sets.(set) name)))
          in
          Fmt.pr "%-16s %11s %11.5g %11s | %11s %11.5g %11s |  (host diagnostic, median per set)@."
            name "" (med 0) "" "" (med 1) "")
        [ "host.steal_pct"; "host.probe_ms" ])
    names;
  Fmt.pr "@.steadiness: %s@."
    (if !all_agree then "every metric agrees within its bound" else "FAILED");
  exit (if !all_agree then 0 else 1)

(* ---- self-test ---------------------------------------------------------- *)

let self_test_run () =
  let e2e, per_layer = read_spec () in
  let failures = ref 0 in
  let check what ok =
    Fmt.pr "self-test: %-64s %s@." what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let names_match spec ms =
    List.length spec = List.length ms
    && List.for_all
         (fun s ->
           List.exists (fun (n, v, u) -> n = s.m_name && u = s.m_unit && Float.is_finite v) ms)
         spec
  in
  let tiny ?(trace = 0) ?(extra = []) ?(seed = 3) w =
    run_self (run_args ~w ~seed ~seconds:1. ~trace extra)
  in
  List.iter
    (fun (w, _) ->
      let code, line = tiny w in
      check
        (Fmt.str "%s: every end-to-end metric, named, with its unit" w)
        (match result_metrics line with
        | Some (j, ms) -> code = 0 && correct j && names_match e2e ms
        | None -> false))
    Gen.workloads;
  let code, line = tiny ~trace:1 "fleet-closed" in
  check "fleet-closed traced: every per-layer metric, named, with its unit"
    (match result_metrics line with
    | Some (_, ms) -> code = 0 && names_match per_layer ms
    | None -> false);
  List.iter
    (fun (w, _) ->
      let digest seed = snd (tiny ~extra:[ "--print-inputs" ] ~seed w) in
      let a = digest 5 and a' = digest 5 and b = digest 6 in
      check
        (Fmt.str "%s: one seed gives one input, another seed another" w)
        (a <> "" && a = a' && a <> b))
    Gen.workloads;
  let code, line = tiny ~extra:[ "--inject-mismatch" ] "serve-pinned-repeat" in
  check "an injected result mismatch fails the run"
    (code <> 0
    && match result_metrics line with Some (j, _) -> not (correct j) | None -> false);
  if !failures = 0 then begin
    Fmt.pr "self-test: OK@.";
    exit 0
  end
  else begin
    Fmt.pr "self-test: %d FAILED@." !failures;
    exit 1
  end

(* ---- one run ------------------------------------------------------------ *)

let () =
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "svcbench: black-box benchmark of agrid serve/router";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !self_test then self_test_run ()
  else if !steady > 0 then steadiness !steady
  else begin
    let w = find_workload !workload in
    if !print_inputs then begin
      print_endline (Gen.digest (Gen.create w ~seed:!seed) ~n:64);
      exit 0
    end;
    if not (Sys.file_exists !agrid) then die "no agrid binary at %s" !agrid;
    if !seconds <= 0. then die "--seconds must be positive";
    match
      Bench.run ~agrid:!agrid ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~inject_mismatch:!inject_mismatch
    with
    | r ->
        print_endline (Bench.result_json r);
        exit (if r.Bench.correct then 0 else 1)
    | exception Drive.Failed msg -> die "%s" msg
  end
