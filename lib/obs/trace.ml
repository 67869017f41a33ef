(* Per-request distributed tracing. A collector is a bounded ring of
   typed events — enqueue, dispatch, retry, failover, death-detect,
   execute, respond — each stamped with a trace id that is a pure
   function of (run nonce, job id), so the router and every backend
   derive the same id for the same job without coordination: the router
   stamps it into the forwarded `agrid-job/1` line and a backend that
   receives one adopts it.

   Alongside the ring, an exemplar buffer auto-retains the {e full}
   timeline of the N slowest jobs seen so far (latency measured enqueue
   to respond), so the interesting outliers survive even after the ring
   has wrapped past their individual events.

   Memory bounds: the ring holds [capacity] events, the exemplar buffer
   [exemplars] timelines, and the open-timeline table tracks at most
   [pending_cap] in-flight jobs of at most [per_job_cap] events each —
   everything else is dropped with counts, never grown.

   Like a {!Sink}, a collector is not thread-safe: the daemons record
   under the same lock that guards their counters. Export speaks
   `agrid-trace/1` JSONL and Chrome trace-event JSON (Perfetto). *)

type kind =
  | Enqueue
  | Dispatch of { backend : string; attempt : int }
  | Retry of { attempt : int; delay_s : float }
  | Failover of { backend : string }
  | Death of { backend : string }
  | Exec of { queue_wait_s : float }
  | Respond of { outcome : string }

type event = { ev_trace : string; ev_job : int; ev_t_s : float; ev_kind : kind }

type exemplar = {
  x_trace : string;
  x_job : int;
  x_duration_s : float;
  x_events : event list;  (* oldest first *)
}

(* An open timeline: its events newest first, and their count, so the
   per-job cap is checked without walking the list. *)
type timeline = { mutable evs : event list; mutable len : int }

type t = {
  nonce : int;
  t0 : float;  (* collector birth; event times are relative seconds *)
  ring : event Snapshot.Ring.t;
  exemplar_cap : int;
  pending_cap : int;
  pending : (int, timeline) Hashtbl.t;
  mutable exemplars : exemplar list;  (* slowest first, <= exemplar_cap *)
  mutable pending_dropped : int;  (* jobs never opened: table was full *)
}

let per_job_cap = 256

let create ?(capacity = 4096) ?(exemplars = 4) ?(pending_cap = 1024) ~nonce () =
  if exemplars < 0 then invalid_arg "Trace.create: exemplars must be >= 0";
  if pending_cap < 1 then invalid_arg "Trace.create: pending_cap must be >= 1";
  {
    nonce;
    t0 = Clock.now_s ();
    ring = Snapshot.Ring.create ~capacity;
    exemplar_cap = exemplars;
    pending_cap;
    pending = Hashtbl.create 64;
    exemplars = [];
    pending_dropped = 0;
  }

(* splitmix64 finalizer over (nonce, job): collision-resistant enough for
   correlation ids and reproducible across processes given the nonce. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let id_of ~nonce ~job =
  Printf.sprintf "%016Lx"
    (mix64
       (* the pi-digit offset keeps (nonce 0, job 0) off the all-zeros id *)
       Int64.(
         add
           (add (mul (of_int nonce) 0x9e3779b97f4a7c15L) (of_int job))
           0x243f6a8885a308d3L))

let id_for t job = id_of ~nonce:t.nonce ~job
let nonce t = t.nonce

(* Exemplar admission: keep the [exemplar_cap] slowest, slowest first. *)
let consider_exemplar t x =
  if t.exemplar_cap > 0 then begin
    let xs =
      List.sort
        (fun a b -> compare b.x_duration_s a.x_duration_s)
        (x :: t.exemplars)
    in
    t.exemplars <-
      (if List.length xs > t.exemplar_cap then List.filteri (fun i _ -> i < t.exemplar_cap) xs
       else xs)
  end

let record ?id t ~job kind =
  let ev_trace = match id with Some id -> id | None -> id_for t job in
  let ev = { ev_trace; ev_job = job; ev_t_s = Clock.now_s () -. t.t0; ev_kind = kind } in
  Snapshot.Ring.push t.ring ev;
  (match kind with
  | Enqueue ->
      if Hashtbl.length t.pending < t.pending_cap then
        Hashtbl.replace t.pending job { evs = [ ev ]; len = 1 }
      else t.pending_dropped <- t.pending_dropped + 1
  | Respond _ -> (
      match Hashtbl.find_opt t.pending job with
      | None -> ()
      | Some timeline ->
          Hashtbl.remove t.pending job;
          let events = List.rev (ev :: timeline.evs) in
          let started =
            match events with e :: _ -> e.ev_t_s | [] -> ev.ev_t_s
          in
          consider_exemplar t
            {
              x_trace = ev_trace;
              x_job = job;
              x_duration_s = ev.ev_t_s -. started;
              x_events = events;
            })
  | Dispatch _ | Retry _ | Failover _ | Death _ | Exec _ -> (
      match Hashtbl.find_opt t.pending job with
      | Some timeline when timeline.len < per_job_cap ->
          timeline.evs <- ev :: timeline.evs;
          timeline.len <- timeline.len + 1
      | Some _ | None -> ()))

let events t = Snapshot.Ring.to_list t.ring
let length t = Snapshot.Ring.length t.ring
let pushed t = Snapshot.Ring.pushed t.ring
let dropped t = Snapshot.Ring.dropped t.ring
let capacity t = Snapshot.Ring.capacity t.ring
let exemplars t = t.exemplars
let n_pending t = Hashtbl.length t.pending

(* ---- agrid-trace/1 JSONL ---- *)

let schema = "agrid-trace/1"

let kind_to_string = function
  | Enqueue -> "enqueue"
  | Dispatch _ -> "dispatch"
  | Retry _ -> "retry"
  | Failover _ -> "failover"
  | Death _ -> "death"
  | Exec _ -> "exec"
  | Respond _ -> "respond"

let kind_fields = function
  | Enqueue -> []
  | Dispatch { backend; attempt } ->
      [ ("backend", Json.Str backend); ("attempt", Json.Int attempt) ]
  | Retry { attempt; delay_s } ->
      [ ("attempt", Json.Int attempt); ("delay_s", Json.Flt delay_s) ]
  | Failover { backend } -> [ ("backend", Json.Str backend) ]
  | Death { backend } -> [ ("backend", Json.Str backend) ]
  | Exec { queue_wait_s } -> [ ("queue_wait_s", Json.Flt queue_wait_s) ]
  | Respond { outcome } -> [ ("outcome", Json.Str outcome) ]

let event_to_json ev =
  Json.Obj
    ([
       ("type", Json.Str "event");
       ("trace", Json.Str ev.ev_trace);
       ("job", Json.Int ev.ev_job);
       ("t_s", Json.Flt ev.ev_t_s);
       ("kind", Json.Str (kind_to_string ev.ev_kind));
     ]
    @ kind_fields ev.ev_kind)

type line =
  | Meta of { nonce : int; events : int; dropped : int; exemplars : int }
  | Event of event
  | Exemplar of exemplar

let line_to_json = function
  | Meta m ->
      Json.Obj
        [
          ("type", Json.Str "meta");
          ("schema", Json.Str schema);
          ("nonce", Json.Int m.nonce);
          ("events", Json.Int m.events);
          ("dropped", Json.Int m.dropped);
          ("exemplars", Json.Int m.exemplars);
        ]
  | Event ev -> event_to_json ev
  | Exemplar x ->
      Json.Obj
        [
          ("type", Json.Str "exemplar");
          ("trace", Json.Str x.x_trace);
          ("job", Json.Int x.x_job);
          ("duration_s", Json.Flt x.x_duration_s);
          ("events", Json.Arr (List.map event_to_json x.x_events));
        ]

let line_to_string l = Json.to_string (line_to_json l)

let lines t =
  Meta
    {
      nonce = t.nonce;
      events = length t;
      dropped = dropped t;
      exemplars = List.length t.exemplars;
    }
  :: List.map (fun ev -> Event ev) (events t)
  @ List.map (fun x -> Exemplar x) t.exemplars

let jsonl_lines t = List.map line_to_string (lines t)
let to_jsonl t = String.concat "\n" (jsonl_lines t) ^ "\n"

let write_jsonl path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_jsonl t))

(* ---- parsing (total: hostile bytes -> Error, never an exception) ---- *)

let ( let* ) = Result.bind

let kind_of_json j =
  let str name =
    match Json.get_string name j with
    | Some s -> Ok s
    | None -> Error (Fmt.str "event is missing the %S field" name)
  in
  let int name =
    match Json.get_int name j with
    | Some i -> Ok i
    | None -> Error (Fmt.str "event is missing the %S field" name)
  in
  let flt name =
    match Json.get_float name j with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error (Fmt.str "event field %S is not finite" name)
    | None -> Error (Fmt.str "event is missing the %S field" name)
  in
  let* kind = str "kind" in
  match kind with
  | "enqueue" -> Ok Enqueue
  | "dispatch" ->
      let* backend = str "backend" in
      let* attempt = int "attempt" in
      Ok (Dispatch { backend; attempt })
  | "retry" ->
      let* attempt = int "attempt" in
      let* delay_s = flt "delay_s" in
      Ok (Retry { attempt; delay_s })
  | "failover" ->
      let* backend = str "backend" in
      Ok (Failover { backend })
  | "death" ->
      let* backend = str "backend" in
      Ok (Death { backend })
  | "exec" ->
      let* queue_wait_s = flt "queue_wait_s" in
      Ok (Exec { queue_wait_s })
  | "respond" ->
      let* outcome = str "outcome" in
      Ok (Respond { outcome })
  | other -> Error (Fmt.str "unknown event kind %S" other)

let event_of_json j =
  let* ev_trace =
    match Json.get_string "trace" j with
    | Some s -> Ok s
    | None -> Error "event is missing the \"trace\" field"
  in
  let* ev_job =
    match Json.get_int "job" j with
    | Some i -> Ok i
    | None -> Error "event is missing the \"job\" field"
  in
  let* ev_t_s =
    match Json.get_float "t_s" j with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error "event field \"t_s\" is not finite"
    | None -> Error "event is missing the \"t_s\" field"
  in
  let* ev_kind = kind_of_json j in
  Ok { ev_trace; ev_job; ev_t_s; ev_kind }

let parse_line s =
  match Json.parse s with
  | exception Json.Parse_error msg -> Error (Fmt.str "not JSON: %s" msg)
  | j -> (
      match Json.get_string "type" j with
      | Some "meta" -> (
          match Json.get_string "schema" j with
          | Some sc when sc = schema ->
              let field name =
                match Json.get_int name j with
                | Some i -> Ok i
                | None -> Error (Fmt.str "meta is missing the %S field" name)
              in
              let* nonce = field "nonce" in
              let* events = field "events" in
              let* dropped = field "dropped" in
              let* exemplars = field "exemplars" in
              Ok (Meta { nonce; events; dropped; exemplars })
          | Some other ->
              Error (Fmt.str "unsupported schema %S (expected %S)" other schema)
          | None -> Error (Fmt.str "missing \"schema\" field (expected %S)" schema))
      | Some "event" ->
          let* ev = event_of_json j in
          Ok (Event ev)
      | Some "exemplar" ->
          let* x_trace =
            match Json.get_string "trace" j with
            | Some s -> Ok s
            | None -> Error "exemplar is missing the \"trace\" field"
          in
          let* x_job =
            match Json.get_int "job" j with
            | Some i -> Ok i
            | None -> Error "exemplar is missing the \"job\" field"
          in
          let* x_duration_s =
            match Json.get_float "duration_s" j with
            | Some f when Float.is_finite f -> Ok f
            | Some _ -> Error "exemplar field \"duration_s\" is not finite"
            | None -> Error "exemplar is missing the \"duration_s\" field"
          in
          let* x_events =
            match Json.member "events" j with
            | Some (Json.Arr evs) ->
                List.fold_left
                  (fun acc j ->
                    let* acc = acc in
                    let* ev = event_of_json j in
                    Ok (ev :: acc))
                  (Ok []) evs
                |> Result.map List.rev
            | Some _ -> Error "exemplar field \"events\" is not an array"
            | None -> Error "exemplar is missing the \"events\" field"
          in
          Ok (Exemplar { x_trace; x_job; x_duration_s; x_events })
      | Some other -> Error (Fmt.str "unknown line type %S" other)
      | None -> Error "missing \"type\" field")

let parse_jsonl lines =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest when String.trim l = "" -> go (n + 1) acc rest
    | l :: rest -> (
        match parse_line l with
        | Ok line -> go (n + 1) (line :: acc) rest
        | Error msg -> Error (Fmt.str "line %d: %s" n msg))
  in
  go 1 [] lines

(* ---- Chrome trace-event JSON (chrome://tracing, Perfetto) ---- *)

(* Instant events ("i") for every point event, plus one complete event
   ("X") per job spanning its first to last point so the per-job lanes
   carry visible bars. Ring events render under pid 0, exemplar timelines
   under pid 1 so a wrapped ring never hides the retained outliers. *)
let chrome_events_of ~pid evs acc =
  let us t = t *. 1e6 in
  let by_job = Hashtbl.create 64 in
  let acc =
    List.fold_left
      (fun acc ev ->
        (match Hashtbl.find_opt by_job ev.ev_job with
        | None -> Hashtbl.replace by_job ev.ev_job (ev.ev_t_s, ev.ev_t_s, ev.ev_trace)
        | Some (lo, hi, tr) ->
            Hashtbl.replace by_job ev.ev_job
              (Float.min lo ev.ev_t_s, Float.max hi ev.ev_t_s, tr));
        Json.Obj
          ([
             ("name", Json.Str (kind_to_string ev.ev_kind));
             ("cat", Json.Str "agrid");
             ("ph", Json.Str "i");
             ("ts", Json.Flt (us ev.ev_t_s));
             ("pid", Json.Int pid);
             ("tid", Json.Int ev.ev_job);
             ("s", Json.Str "t");
             ("args", Json.Obj (("trace", Json.Str ev.ev_trace) :: kind_fields ev.ev_kind));
           ])
        :: acc)
      acc evs
  in
  Hashtbl.fold
    (fun job (lo, hi, tr) acc ->
      Json.Obj
        [
          ("name", Json.Str (Fmt.str "job %d" job));
          ("cat", Json.Str "agrid");
          ("ph", Json.Str "X");
          ("ts", Json.Flt (us lo));
          ("dur", Json.Flt (us (hi -. lo)));
          ("pid", Json.Int pid);
          ("tid", Json.Int job);
          ("args", Json.Obj [ ("trace", Json.Str tr) ]);
        ]
      :: acc)
    by_job acc

let chrome_of_lines lines =
  let ring_events =
    List.filter_map (function Event ev -> Some ev | _ -> None) lines
  in
  let exemplar_events =
    List.concat_map (function Exemplar x -> x.x_events | _ -> []) lines
  in
  let evs =
    chrome_events_of ~pid:0 ring_events (chrome_events_of ~pid:1 exemplar_events [])
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr evs);
         ("displayTimeUnit", Json.Str "ms");
         ("otherData", Json.Obj [ ("schema", Json.Str schema) ]);
       ])

let chrome_json t = chrome_of_lines (lines t)
