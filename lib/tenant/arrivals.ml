open Agrid_prng

type process = Poisson of float | Trace of int list

let process_to_string = function
  | Poisson rate -> Fmt.str "poisson(%g/cycle)" rate
  | Trace ts -> Fmt.str "trace[%d]" (List.length ts)

(* The expected-count cap keeps a mistyped rate ("1000" where "0.001" was
   meant) from generating millions of applications before anything runs. *)
let max_expected_arrivals = 10_000.

let validate_process ~horizon = function
  | Poisson rate ->
      if (not (Float.is_finite rate)) || rate <= 0. then
        Error (Fmt.str "poisson rate must be finite and positive, got %g" rate)
      else if rate *. float_of_int horizon > max_expected_arrivals then
        Error
          (Fmt.str "poisson rate %g over %d cycles expects %.0f arrivals (cap %.0f)"
             rate horizon
             (rate *. float_of_int horizon)
             max_expected_arrivals)
      else Ok ()
  | Trace ts -> (
      match List.find_opt (fun t -> t < 0) ts with
      | Some t -> Error (Fmt.str "trace arrival time %d is negative" t)
      | None -> Ok ())

type arrival = { at : int; stream : int; seq : int }

(* Per-stream substream: the same golden-ratio/splitmix mixing constants
   the campaign uses for its replicate streams, with a distinct additive
   tag so a traffic stream never aliases a campaign stream at equal
   seeds. *)
let stream_rng ~seed ~stream =
  Splitmix64.create
    Int64.(
      add
        (mul (of_int seed) 0x9E3779B97F4A7C15L)
        (add (mul (of_int (stream + 1)) 0xBF58476D1CE4E5B9L) 0x7E3779B9L))

let stream_arrivals ~seed ~horizon ~stream = function
  | Trace ts ->
      List.filteri (fun _ t -> t >= 0 && t <= horizon) (List.sort compare ts)
      |> List.mapi (fun seq at -> { at; stream; seq })
  | Poisson rate ->
      let rng = stream_rng ~seed ~stream in
      let out = ref [] in
      let seq = ref 0 in
      let t = ref 0. in
      let continue_ = ref true in
      while !continue_ do
        t := !t +. Dist.exponential rng ~rate;
        let at = int_of_float !t in
        if at > horizon then continue_ := false
        else begin
          out := { at; stream; seq = !seq } :: !out;
          incr seq
        end
      done;
      List.rev !out

let generate ~seed ~horizon processes =
  if horizon < 0 then invalid_arg "Arrivals.generate: negative horizon";
  List.iteri
    (fun stream p ->
      match validate_process ~horizon p with
      | Ok () -> ()
      | Error msg -> invalid_arg (Fmt.str "Arrivals.generate: stream %d: %s" stream msg))
    processes;
  List.concat (List.mapi (fun stream p -> stream_arrivals ~seed ~horizon ~stream p) processes)
  |> List.sort (fun a b ->
         match compare a.at b.at with
         | 0 -> ( match compare a.stream b.stream with 0 -> compare a.seq b.seq | c -> c)
         | c -> c)
