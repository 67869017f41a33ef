(* One benchmark run: set the daemons up (several cold starts), drive
   them for the measured window, stop them, check every answer against a
   one-shot replay, and compute the metrics. *)

module Json = Agrid_obs.Json
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Serialize = Agrid_workload.Serialize

let workers () = Domain.recommended_domain_count ()

(* serve's worker domains. One worker leaves the second core of a 2-core
   host to the daemon's I/O and the harness: with a worker per core, any
   CPU time the host takes away stalls a worker, and with it the other
   domain's stop-the-world minor collections. *)
let serve_workers = 1

(* Daemon queue bound: far above what either loop keeps in flight. *)
let queue = 64

(* fleet-closed's backends, one worker each. Two backends run two
   compute processes on two cores and lost ~30% of their throughput to a
   CPU hog beside the benchmark; one lost ~11%. *)
let fleet_backends = 1

(* Cold starts per run; setup_s is the median of the cleanest quarter of
   them (see [setup]). *)
let cold_starts = 41

(* Unmeasured load before the window, so pools and caches are warm. *)
let warm_s = 1.0

(* t100_per_task averages this many leading jobs of the request stream,
   so it is a function of the seed alone. *)
let quality_jobs = 256

(* serve-closed and fleet-closed replay every 8th job (and the first
   [quality_jobs]): all of a 30 s window takes ~15 s to replay on 2 cores,
   which the benchmark's time budget cannot carry. serve-pinned-repeat has
   256 distinct jobs and replays them all. *)
let verified workload idx =
  match workload with
  | Gen.Serve_closed | Gen.Fleet_closed -> idx < quality_jobs || idx mod 8 = 0
  | Gen.Serve_pinned_repeat -> true

type metric = { name : string; value : float; unit : string }
type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

(* The result line. Values carry every digit measured (%.17g), which the
   shared JSON emitter's %.9g would cut. *)
let result_json r =
  let metric m =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
      (Json.to_string (Json.Str m.name))
      (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "0")
      (Json.to_string (Json.Str m.unit))
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" r.correct
    r.attempted r.failed
    (String.concat "," (List.map metric r.metrics))

(* A fixed integer kernel that touches nothing of the program: timed
   before and after a run, it tells a slow host from a slow change. *)
let host_probe () =
  let t0 = Drive.now () in
  let x = ref 0x2545F4914F6CDD1D in
  for i = 1 to 20_000_000 do
    x := (!x lxor (!x lsr 29)) * 0x2545F4914F6CDD1D + i
  done;
  ignore (Sys.opaque_identity !x);
  (Drive.now () -. t0) *. 1e3

(* The integer printed right after [key] in a daemon's stats line. *)
let int_after text key =
  let kl = String.length key and n = String.length text in
  let rec find i =
    if i + kl > n then 0
    else if String.sub text i kl = key then
      try Scanf.sscanf (String.sub text (i + kl) (n - i - kl)) " %d" Fun.id with _ -> 0
    else find (i + 1)
  in
  find 0

(* The number printed right before [key], nan if none. *)
let number_before text key =
  let kl = String.length key and n = String.length text in
  let rec find i =
    if i + kl > n then nan
    else if String.sub text i kl = key then begin
      let j = ref (i - 1) in
      while !j >= 0 && (match text.[!j] with '0' .. '9' | '.' -> true | _ -> false) do
        decr j
      done;
      Option.value ~default:nan (float_of_string_opt (String.sub text (!j + 1) (i - !j - 1)))
    end
    else find (i + 1)
  in
  find 0

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* Replay each distinct job once, one-shot, on every core, outside any
   timed window. *)
let replay specs =
  let keys = Array.of_list (List.map fst specs) in
  let results =
    Agrid_par.Parallel.map ~domains:(workers ()) Job.run (Array.of_list (List.map snd specs))
  in
  let tbl = Hashtbl.create (Array.length keys) in
  Array.iteri (fun i k -> Hashtbl.replace tbl k results.(i)) keys;
  tbl

let answered_ok j =
  Json.get_string "type" j = Some "result" && Json.get_string "status" j = Some "ok"

(* Does a served answer carry the replay's result, bit for bit? *)
let matches j (r : Job.result) =
  answered_ok j
  && r.Job.status = Job.Ok_done
  && Json.get_string "tec_bits" j = Some (Fmt.str "%Lx" (Int64.bits_of_float r.Job.tec))
  && Json.get_int "t100" j = Some r.Job.t100
  && Json.get_int "mapped" j = Some r.Job.mapped
  && Json.get_int "aet" j = Some r.Job.aet
  && Json.get_int "final_clock" j = Some r.Job.final_clock
  && Json.get_int "discarded" j = Some r.Job.n_discarded

(* Mean T100/|T| over the stream's first [quality_jobs] jobs. *)
let t100_per_task gen expected =
  let rec collect idx acc n =
    if n = 0 then List.rev acc
    else
      match Gen.request gen idx with
      | Gen.Submit { spec; key; _ } -> collect (idx + 1) ((key, spec) :: acc) (n - 1)
      | Gen.Health | Gen.Stats -> collect (idx + 1) acc n
  in
  let jobs = collect 0 [] quality_jobs in
  let ratios =
    List.map
      (fun (key, spec) ->
        let r =
          match Hashtbl.find_opt expected key with Some r -> r | None -> Job.run spec
        in
        let n = Agrid_workload.Workload.n_tasks (Serialize.realize spec.Job.scenario) in
        float_of_int r.Job.t100 /. float_of_int n)
      jobs
  in
  Stat.mean (Array.of_list ratios)

(* Host interference on a small shared machine comes in bursts of a few
   seconds, mostly CPU time the hypervisor steals. Each timing is
   therefore taken per one-second slice of the window (by answer time),
   over the slices that lost the least CPU time, and the median over
   those slices reported. *)
let slices ~start ~seconds ~n samples =
  let len = seconds /. float_of_int n in
  let buckets = Array.make n [] in
  List.iter
    (fun (t, v) ->
      let b = int_of_float ((t -. start) /. len) in
      if b >= 0 && b < n then buckets.(b) <- (t, v) :: buckets.(b))
    samples;
  Array.map Array.of_list buckets

(* The slices that lost at most 2 points more of the CPU than the run's
   cleanest slice, and at least the 3 cleanest: on a quiet host almost
   all of them. A slice's rate falls about 2% per point of CPU stolen, so
   keeping slices near the run's cleanest makes runs that lost different
   amounts of CPU time read alike more than keeping a fixed share does. *)
let clean_slices slices steal =
  let s = Stat.sorted steal in
  let cut = Float.max (s.(0) +. 0.02) s.(min 2 (Array.length s - 1)) in
  Array.of_list
    (List.filteri (fun i _ -> steal.(i) <= cut) (Array.to_list slices))

let median_over_slices slices f =
  Stat.median
    (Array.of_list
       (List.filter_map
          (fun a ->
            if Array.length a = 0 then None
            else match f a with v when Float.is_nan v -> None | v -> Some v)
          (Array.to_list slices)))

(* setup_s from the cold starts' (wall time, time not running) pairs. A
   start's wall time is the daemons' CPU time plus the time they did not
   run: waiting on each other and on the harness, and CPU time the host
   took away, which comes in bursts. The quarter of the starts that spent
   the least time not running are kept, and setup_s is the median wall
   time of those. Returns it, the starts by time not running, and how
   many of them were kept. *)
let setup starts =
  let starts = List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) starts in
  let kept = (List.length starts + 3) / 4 in
  let walls = List.filteri (fun i _ -> i < kept) (List.map fst starts) in
  (Stat.median (Array.of_list walls), starts, kept)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_dir dir =
  (try Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let run ~agrid ~workload ~seed ~seconds ~trace ~inject_mismatch =
  let gen = Gen.create workload ~seed in
  let dir = Filename.concat ".svcbench_run" (string_of_int (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let probe_before = host_probe () in
  let steal_before = Drive.cpu_ticks () in
  (* spawn to the first health answer (fleet: every backend healthy), and
     how much of that time the daemons did not run *)
  let start () =
    let t0 = Drive.now () in
    let d =
      match workload with
      | Gen.Serve_closed | Gen.Serve_pinned_repeat ->
          Drive.start_serve ~agrid ~dir ~workers:serve_workers ~queue
      | Gen.Fleet_closed -> Drive.start_fleet ~agrid ~dir ~n:fleet_backends ~queue
    in
    let wall = Drive.now () -. t0 in
    (d, (wall, wall -. Drive.daemons_cpu_s d))
  in
  let setups =
    List.init (cold_starts - 1) (fun _ ->
        let d, s = start () in
        Drive.stop d;
        s)
  in
  let d, s = start () in
  let setup_s, starts, kept = setup (s :: setups) in
  Fmt.epr "svcbench: cold starts, wall/not running (ms), the first %d kept: %s@." kept
    (String.concat " "
       (List.map (fun (w, g) -> Fmt.str "%.2f/%.2f" (w *. 1e3) (g *. 1e3)) starts));
  (* twice as many requests in flight as there are workers, so a worker
     never idles between jobs *)
  let outstanding =
    match workload with
    | Gen.Serve_closed | Gen.Serve_pinned_repeat -> 2 * serve_workers
    | Gen.Fleet_closed -> 2 * fleet_backends
  in
  let out, reader =
    Drive.run gen d ~outstanding ~warm:warm_s ~seconds
      ~slices:(max 1 (int_of_float (Float.round seconds)))
  in
  let rss_kb = Drive.peak_rss_kb d in
  Drive.stop d;
  Thread.join reader;
  let daemon_err =
    List.map (fun c -> read_file c.Drive.err_path) (d.Drive.front.Drive.child :: d.Drive.backends)
  in
  (* correlate answers: jobs by tag, probes by kind *)
  let answers = Hashtbl.create 4096 in
  let probe_answers = ref 0 and stray = ref 0 in
  Array.iter
    (fun (t, line) ->
      match Json.parse_opt line with
      | None -> incr stray
      | Some j -> (
          match Option.bind (Json.get_string "tag" j) int_of_string_opt with
          | Some idx -> Hashtbl.replace answers idx (t, j)
          | None ->
              if Json.get_string "type" j = Some "health" || Result.is_ok (Codec.parse_stats line)
              then incr probe_answers
              else incr stray))
    out.Drive.responses;
  let specs = Hashtbl.create 4096 in
  Array.iter
    (fun (s : Drive.sent) ->
      match s.Drive.req with
      | Gen.Submit { idx; key; spec } when Hashtbl.mem answers idx && verified workload idx ->
          if not (Hashtbl.mem specs key) then Hashtbl.replace specs key spec
      | _ -> ())
    out.Drive.sent;
  let expected = replay (Hashtbl.fold (fun k s acc -> (k, s) :: acc) specs []) in
  if inject_mismatch then begin
    match Hashtbl.fold (fun k r acc -> if acc = None then Some (k, r) else acc) expected None with
    | Some (k, r) -> Hashtbl.replace expected k { r with Job.t100 = r.Job.t100 + 1 }
    | None -> ()
  end;
  let ok = ref 0 and probes = ref 0 in
  let latency = ref [] and wall = ref [] and wait = ref [] and relay = ref [] in
  Array.iter
    (fun (s : Drive.sent) ->
      match s.Drive.req with
      | Gen.Health | Gen.Stats -> incr probes
      | Gen.Submit { idx; key; _ } -> (
          let good j =
            if verified workload idx then
              match Hashtbl.find_opt expected key with Some r -> matches j r | None -> false
            else answered_ok j
          in
          match Hashtbl.find_opt answers idx with
          | Some (t, j) when good j ->
              incr ok;
              if s.Drive.timed then begin
                latency := (t, (t -. s.Drive.at) *. 1e3) :: !latency;
                let w = Option.value ~default:0. (Json.get_float "wall_s" j) in
                let l = Option.value ~default:0. (Json.get_float "latency_s" j) in
                wall := (w *. 1e3) :: !wall;
                wait := ((l -. w) *. 1e3) :: !wait;
                relay := ((t -. s.Drive.at -. l) *. 1e3) :: !relay
              end
          | _ -> ()))
    out.Drive.sent;
  let attempted = Array.length out.Drive.sent in
  let succeeded = !ok + min !probes !probe_answers in
  let failed = attempted - succeeded + !stray in
  let samples = !latency in
  let latency = Array.of_list (List.map snd samples) in
  let per_second =
    slices ~start:out.Drive.window_start ~seconds ~n:(Array.length out.Drive.steal) samples
  in
  let clean = clean_slices per_second out.Drive.steal in
  (* a slice's rate: answers after its first one over the time since *)
  let rate a =
    let ts = Array.map fst a in
    let first = Array.fold_left Float.min infinity ts in
    let last = Array.fold_left Float.max neg_infinity ts in
    if Array.length a < 2 || last <= first then nan
    else float_of_int (Array.length a - 1) /. (last -. first)
  in
  let quantile q a = Stat.quantile (Array.map snd a) q in
  let probe_after = host_probe () in
  let steal_pct =
    let (s0, t0), (s1, t1) = (steal_before, Drive.cpu_ticks ()) in
    if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.
  in
  Fmt.epr
    "svcbench: %s seed %d: %d requests, %d latency samples, host probe %.1f ms before, %.1f ms \
     after, %.1f%% CPU stolen@."
    (Gen.workload_name workload) seed attempted (Array.length latency) probe_before probe_after
    steal_pct;
  Fmt.epr "svcbench: answers/stolen %% per second of the window (%d clean): %s@."
    (Array.length clean)
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i a -> Fmt.str "%d/%.0f" (Array.length a) (100. *. out.Drive.steal.(i)))
             per_second)));
  let m name unit value = { name; value; unit } in
  let count name n = m name "count" (float_of_int n) in
  let e2e =
    [
      m "jobs_per_s" "1/s" (median_over_slices clean rate);
      m "latency_p50_ms" "ms" (median_over_slices clean (quantile 0.5));
      m "latency_p90_ms" "ms" (median_over_slices clean (quantile 0.9));
      m "success_rate" "ratio" (float_of_int succeeded /. float_of_int (max 1 attempted));
      m "t100_per_task" "ratio" (t100_per_task gen expected);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.);
    ]
  in
  let metrics =
    if not trace then e2e
    else begin
      let layers = Layers.run gen ~min_jobs:8 ~max_jobs:400 ~budget_s:(seconds /. 2.) in
      Fmt.pr "%s seed %d, traced run:@.%a" (Gen.workload_name workload) seed Layers.pp_table
        layers;
      let p50 l = if l = [] then 0. else Stat.quantile (Array.of_list l) 0.5 in
      let p99 l = if l = [] then 0. else Stat.quantile (Array.of_list l) 0.99 in
      let sum_over key = List.fold_left (fun acc e -> acc + int_after e key) 0 daemon_err in
      let max_over key = List.fold_left (fun acc e -> max acc (int_after e key)) 0 daemon_err in
      let router_err = match workload with Gen.Fleet_closed -> List.hd daemon_err | _ -> "" in
      List.map (fun (name, value, unit) -> m name unit value) (Layers.metrics layers)
      @ [
          m "server.service_ms" "ms" (p50 !wall);
          m "server.queue_wait_ms" "ms" (p50 !wait);
          m "server.queue_wait_p99_ms" "ms" (p99 !wait);
          count "server.queue_high_water" (max_over "queue_high_water");
          count "server.queue_full" (sum_over "rejected (full");
          m "router.overhead_ms" "ms" (if router_err = "" then 0. else p50 !relay);
          m "router.retries" "count" (number_before router_err " retries");
          m "router.failovers" "count" (number_before router_err " failovers");
          count "loadgen.sent" attempted;
          count "latency.samples" (Array.length latency);
          m "latency.p99_ms" "ms" (Stat.quantile latency 0.99);
          count "host.clean_slices" (Array.length clean);
          m "host.probe_ms" "ms" ((probe_before +. probe_after) /. 2.);
          m "host.steal_pct" "%" steal_pct;
        ]
    end
  in
  let metrics =
    List.map (fun m -> if Float.is_nan m.value then { m with value = 0. } else m) metrics
  in
  let correct = failed = 0 && Array.length latency > 0 in
  { correct; attempted; failed; metrics }
