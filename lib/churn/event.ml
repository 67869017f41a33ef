(* The churn event grammar. Events address machines by their original
   full-grid index; the engine masks rather than renumbers, so a trace
   stays meaningful across any number of transitions. *)

type kind =
  | Leave of int
  | Rejoin of int
  | Battery_shock of int * float
  | Bandwidth_degrade of int * float

type t = { at : int; kind : kind }

let machine = function
  | Leave j | Rejoin j | Battery_shock (j, _) | Bandwidth_degrade (j, _) -> j

let kind_name = function
  | Leave _ -> "leave"
  | Rejoin _ -> "rejoin"
  | Battery_shock _ -> "shock"
  | Bandwidth_degrade _ -> "degrade"

(* Stable: same-instant events apply in the order given (so a zero-length
   outage is leave-then-rejoin, not the reverse). *)
let sort events = List.stable_sort (fun a b -> compare a.at b.at) events

(* Applicability check: replays presence over the trace. The engine calls
   this before touching the schedule so a bad trace fails fast. *)
let validate ~n_machines events =
  let bad fmt = Fmt.kstr invalid_arg ("Churn.Event.validate: " ^^ fmt) in
  let up = Array.make n_machines true in
  List.iter
    (fun { at; kind } ->
      if at < 0 then bad "negative event time %d" at;
      let j = machine kind in
      if j < 0 || j >= n_machines then bad "no such machine %d" j;
      match kind with
      | Leave _ ->
          if not up.(j) then bad "leave@%d: machine %d is already absent" at j;
          up.(j) <- false
      | Rejoin _ ->
          if up.(j) then bad "rejoin@%d: machine %d is already present" at j;
          up.(j) <- true
      | Battery_shock (_, f) ->
          if not (f >= 0. && f <= 1.) then bad "shock@%d: fraction %g outside [0,1]" at f;
          if not up.(j) then bad "shock@%d: machine %d is absent" at j
      | Bandwidth_degrade (_, f) ->
          if not (f > 0. && Float.is_finite f) then
            bad "degrade@%d: factor %g must be finite and positive" at f;
          if not up.(j) then bad "degrade@%d: machine %d is absent" at j)
    events

let to_string { at; kind } =
  match kind with
  | Leave j -> Printf.sprintf "leave@%d:%d" at j
  | Rejoin j -> Printf.sprintf "rejoin@%d:%d" at j
  | Battery_shock (j, f) -> Printf.sprintf "shock@%d:%d:%g" at j f
  | Bandwidth_degrade (j, f) -> Printf.sprintf "degrade@%d:%d:%g" at j f

let parse s =
  let bad () = Fmt.kstr invalid_arg "Churn.Event.parse: malformed event %S" s in
  let name, rest =
    match String.index_opt s '@' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> bad ()
  in
  let fields = String.split_on_char ':' rest in
  let int_of x = match int_of_string_opt (String.trim x) with Some v -> v | None -> bad () in
  let float_of x =
    match float_of_string_opt (String.trim x) with Some v -> v | None -> bad ()
  in
  match (String.trim name, fields) with
  | "leave", [ at; j ] -> { at = int_of at; kind = Leave (int_of j) }
  | "rejoin", [ at; j ] -> { at = int_of at; kind = Rejoin (int_of j) }
  | "shock", [ at; j; f ] -> { at = int_of at; kind = Battery_shock (int_of j, float_of f) }
  | "degrade", [ at; j; f ] ->
      { at = int_of at; kind = Bandwidth_degrade (int_of j, float_of f) }
  | _ -> bad ()

let parse_trace s =
  String.split_on_char ',' s
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None else Some (parse part))
  |> sort

let trace_to_string events = String.concat "," (List.map to_string events)

let pp ppf e = Fmt.string ppf (to_string e)
