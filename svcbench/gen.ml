(* The request generator. Every request is a pure function of the
   workload, the seed and its index, so a run can be replayed and two
   runs with one seed send identical bytes. *)

module Rng = Agrid_prng.Splitmix64
module Json = Agrid_obs.Json
module Serialize = Agrid_workload.Serialize
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec

type workload = Serve_closed | Serve_pinned_repeat | Fleet_closed

let workloads =
  [
    ("serve-closed", Serve_closed);
    ("serve-pinned-repeat", Serve_pinned_repeat);
    ("fleet-closed", Fleet_closed);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type request =
  | Submit of { idx : int; spec : Job.spec; key : int }
      (** [key] names the job's result: equal keys give equal results, so
          the replay runs each key once *)
  | Health
  | Stats

type t = { workload : workload; seed : int; pinned : string array }

(* Generated scenarios at 3% of the paper's |T| = 1024 (~30 tasks). *)
let generated_scale = 0.03

(* Pinned scenario texts: 12.5% scale, ~15 KB per request line, cycled
   from 256 scenarios. Fewer make throughput hinge on which scenarios the
   seed drew: with 4 it moved by +-20% between seeds. *)
let pinned_scale = 0.125
let n_pinned = 256

(* Share of fleet-closed requests that are health/stats probes: 1 in 20. *)
let probe_every = 20

let rng_for seed i = Rng.of_int ((seed lsl 32) lxor i)
let pick rng arr = arr.(Rng.next_int rng (Array.length arr))
let cases = [| Agrid_platform.Grid.A; Agrid_platform.Grid.B |]

let generated rng =
  Serialize.Generated
    {
      seed = Rng.next_int rng 1_000_000_000;
      scale = generated_scale;
      etc_index = Rng.next_int rng 3;
      dag_index = Rng.next_int rng 3;
      case = pick rng cases;
    }

let create workload ~seed =
  let pinned =
    match workload with
    | Serve_pinned_repeat ->
        Array.init n_pinned (fun k ->
            let rng = rng_for seed (-1 - k) in
            let scenario_seed = Rng.next_int rng 1_000_000_000 in
            let etc_index = Rng.next_int rng 3 in
            let dag_index = Rng.next_int rng 3 in
            let case = pick rng cases in
            Serialize.to_string
              (Serialize.spec_for ~seed:scenario_seed ~scale:pinned_scale)
              ~etc_index ~dag_index ~case)
    | Serve_closed | Fleet_closed -> [||]
  in
  { workload; seed; pinned }

let request t idx =
  let rng = rng_for t.seed idx in
  let tag = Some (string_of_int idx) in
  match t.workload with
  | Serve_closed ->
      Submit { idx; key = idx; spec = { (Job.default (generated rng)) with Job.tag } }
  | Serve_pinned_repeat ->
      let k = idx mod n_pinned in
      Submit
        {
          idx;
          key = k;
          spec =
            {
              (Job.default (Serialize.Pinned t.pinned.(k))) with
              Job.tag;
              delta_t = 100;
            };
        }
  | Fleet_closed ->
      if Rng.next_int rng probe_every = 0 then
        if Rng.next_bool rng then Health else Stats
      else
        let scenario = generated rng in
        let leave = 40 + Rng.next_int rng 40 in
        let rejoin = 120 + Rng.next_int rng 60 in
        let events =
          Agrid_churn.Event.parse_trace
            (Fmt.str "leave@%d:1,rejoin@%d:1" leave rejoin)
        in
        Submit { idx; key = idx; spec = { (Job.default scenario) with Job.tag; events } }

let health_line = {|{"schema":"agrid-job/1","kind":"health"}|}

let line = function
  | Submit { spec; _ } -> Json.to_string (Codec.job_to_json spec)
  | Health -> health_line
  | Stats -> {|{"schema":"agrid-job/1","kind":"stats"}|}

(* A digest of the first [n] request lines: what the self-test compares
   to show the seed decides the inputs. *)
let digest t ~n =
  let b = Buffer.create 4096 in
  for i = 0 to n - 1 do
    Buffer.add_string b (line (request t i));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
