(* The decision ledger: an append-only record of WHY each SLRH mapping
   decision came out the way it did, not merely how long it took (that is
   Span's job) or what the aggregate counts were (Registry's). One entry
   per observable fact at a (clock, machine) decision point:

   - [Candidate]: a subtask the sweep considered, with its fate — rejected
     from the pool (typed reason: unmapped parent, version-infeasible
     execution energy, worst-case child-communication overflow, filtered
     by the churn retry policy), scored into the pool, walked but planned
     past the horizon, or out-scored by the eventual winner;
   - [Commit]: a committed assignment with the full score decomposition
     (the alpha/beta/gamma terms of the Lagrangian objective), the pool it
     beat and the margin over the runner-up;
   - [Idle]: a machine that assigned nothing this step, and why (busy,
     masked out by churn, empty pool, or nothing inside the horizon);
   - [Exhausted]: a walk that found nothing to commit, with the size of
     the pool it walked (0: empty pool; SLRH-2 ends every drain this way);
   - [Churn]: a grid transition applied by the churn engine.

   Entries reference versions by their string names and machines/tasks by
   index, so the type is self-contained at the observability layer — the
   scheduler core (which depends on this library) fills it in.

   The ledger serialises as JSONL, schema [agrid-ledger/2]: a meta line
   followed by one flat JSON object per entry, so the file both streams
   and diffs line-by-line. [of_jsonl] inverts [to_jsonl]; floats pass
   through ["%.9g"], so scores are recovered to 9 significant digits, not
   bit-exactly. The diff and explain queries below power the
   `agrid ledger-diff` and `agrid explain` subcommands. *)

type reject =
  | Parent_unmapped of { parent : int }
  | Exec_energy of { version : string; required : float; available : float }
  | Comm_energy of { version : string; exec : float; comm : float; available : float }
  | Ineligible

type fate =
  | Rejected of reject
  | Scored of { version : string; score : float; rank : int }
  | Horizon_missed of { version : string; score : float; rank : int; planned_start : int }
  | Outscored of { version : string; score : float; rank : int }

type idle_cause = Busy | Down | Pool_empty | Horizon_miss

type entry =
  | Candidate of { clock : int; machine : int; task : int; fate : fate }
  | Commit of {
      clock : int;
      machine : int;
      task : int;
      version : string;
      start : int;
      stop : int;
      score : float;
      alpha_term : float;
      beta_term : float;
      gamma_term : float;
      pool_size : int;
      pool_score : float;
      energy_remaining : float;
      runner_up : (int * float) option;  (** (task, score) of the second-best *)
    }
  | Idle of { clock : int; machine : int; cause : idle_cause }
  | Exhausted of { clock : int; machine : int; pool_size : int }
  | Churn of { clock : int; machine : int; event : string; detail : float }
  | Multiplier of {
      clock : int;
      epoch : int;
      round : int;
      trigger : string;
      step : float;
      g_energy : float;
      g_aet : float;
      lambda_energy : float;
      lambda_aet : float;
      alpha_before : float;
      beta_before : float;
      gamma_before : float;
      alpha : float;
      beta : float;
      gamma : float;
    }

type t = { mutable rev_entries : entry list; mutable length : int }

let create () = { rev_entries = []; length = 0 }

let record t e =
  t.rev_entries <- e :: t.rev_entries;
  t.length <- t.length + 1

let length t = t.length
let entries t = Array.of_list (List.rev t.rev_entries)
let iter f t = List.iter f (List.rev t.rev_entries)

(* ---- rendering ---- *)

let idle_cause_to_string = function
  | Busy -> "busy"
  | Down -> "down"
  | Pool_empty -> "pool_empty"
  | Horizon_miss -> "horizon_miss"

let pp_reject ppf = function
  | Parent_unmapped { parent } -> Fmt.pf ppf "parent %d unmapped" parent
  | Exec_energy { version; required; available } ->
      Fmt.pf ppf "%s execution energy infeasible (needs %.3f, has %.3f)" version
        required available
  | Comm_energy { version; exec; comm; available } ->
      Fmt.pf ppf
        "%s worst-case child-communication overflow (exec %.3f + comm %.3f > %.3f)"
        version exec comm available
  | Ineligible -> Fmt.pf ppf "filtered by retry policy (deferred or failed)"

let pp_fate ppf = function
  | Rejected r -> Fmt.pf ppf "rejected: %a" pp_reject r
  | Scored { version; score; rank } ->
      Fmt.pf ppf "pooled rank %d as %s (score %.6f)" rank version score
  | Horizon_missed { version; score; rank; planned_start } ->
      Fmt.pf ppf "rank %d as %s (score %.6f) but planned start %d missed the horizon"
        rank version score planned_start
  | Outscored { version; score; rank } ->
      Fmt.pf ppf "out-scored at rank %d as %s (score %.6f)" rank version score

let pp_entry ppf = function
  | Candidate { clock; machine; task; fate } ->
      Fmt.pf ppf "clock %d machine %d: subtask %d %a" clock machine task pp_fate fate
  | Commit { clock; machine; task; version; start; stop; score; alpha_term;
             beta_term; gamma_term; pool_size; runner_up; _ } ->
      Fmt.pf ppf
        "clock %d machine %d: COMMIT subtask %d as %s [%d, %d) score %.6f = \
         alpha %.6f - beta %.6f + gamma %.6f (pool %d%a)"
        clock machine task version start stop score alpha_term beta_term gamma_term
        pool_size
        (fun ppf -> function
          | None -> Fmt.pf ppf ", no runner-up"
          | Some (ru_task, ru_score) ->
              Fmt.pf ppf ", margin %.6f over subtask %d at %.6f" (score -. ru_score)
                ru_task ru_score)
        runner_up
  | Idle { clock; machine; cause } ->
      Fmt.pf ppf "clock %d machine %d: idle (%s)" clock machine
        (idle_cause_to_string cause)
  | Exhausted { clock; machine; pool_size } ->
      Fmt.pf ppf "clock %d machine %d: walk exhausted a pool of %d" clock machine
        pool_size
  | Churn { clock; machine; event; detail } ->
      Fmt.pf ppf "clock %d machine %d: churn %s (%.3f)" clock machine event detail
  | Multiplier { clock; epoch; round; trigger; step; g_energy; g_aet;
                 lambda_energy; lambda_aet; alpha_before; beta_before;
                 gamma_before; alpha; beta; gamma } ->
      Fmt.pf ppf
        "clock %d: DUAL round %d (%s, epoch %d) step %.6f on g = (energy %+.6f, \
         aet %+.6f) -> lambda = (%.6f, %.6f), weights (%.4f, %.4f, %.4f) -> \
         (%.4f, %.4f, %.4f)"
        clock round trigger epoch step g_energy g_aet lambda_energy lambda_aet
        alpha_before beta_before gamma_before alpha beta gamma

(* ---- JSONL ---- *)

let schema = "agrid-ledger/2"

let json_of_entry e =
  let open Json in
  match e with
  | Candidate { clock; machine; task; fate } ->
      let base =
        [ ("type", Str "candidate"); ("clock", Int clock); ("machine", Int machine);
          ("task", Int task) ]
      in
      let rest =
        match fate with
        | Rejected (Parent_unmapped { parent }) ->
            [ ("fate", Str "rejected"); ("reason", Str "parent_unmapped");
              ("parent", Int parent) ]
        | Rejected (Exec_energy { version; required; available }) ->
            [ ("fate", Str "rejected"); ("reason", Str "exec_energy");
              ("version", Str version); ("required", Flt required);
              ("available", Flt available) ]
        | Rejected (Comm_energy { version; exec; comm; available }) ->
            [ ("fate", Str "rejected"); ("reason", Str "comm_energy");
              ("version", Str version); ("exec", Flt exec); ("comm", Flt comm);
              ("available", Flt available) ]
        | Rejected Ineligible -> [ ("fate", Str "rejected"); ("reason", Str "ineligible") ]
        | Scored { version; score; rank } ->
            [ ("fate", Str "scored"); ("version", Str version); ("score", Flt score);
              ("rank", Int rank) ]
        | Horizon_missed { version; score; rank; planned_start } ->
            [ ("fate", Str "horizon_missed"); ("version", Str version);
              ("score", Flt score); ("rank", Int rank);
              ("planned_start", Int planned_start) ]
        | Outscored { version; score; rank } ->
            [ ("fate", Str "outscored"); ("version", Str version); ("score", Flt score);
              ("rank", Int rank) ]
      in
      Obj (base @ rest)
  | Commit { clock; machine; task; version; start; stop; score; alpha_term;
             beta_term; gamma_term; pool_size; pool_score; energy_remaining;
             runner_up } ->
      Obj
        ([
           ("type", Str "commit"); ("clock", Int clock); ("machine", Int machine);
           ("task", Int task); ("version", Str version); ("start", Int start);
           ("stop", Int stop); ("score", Flt score); ("alpha_term", Flt alpha_term);
           ("beta_term", Flt beta_term); ("gamma_term", Flt gamma_term);
           ("pool_size", Int pool_size); ("pool_score", Flt pool_score);
           ("energy_remaining", Flt energy_remaining);
         ]
        @
        match runner_up with
        | None -> []
        | Some (ru_task, ru_score) ->
            (* margin is derived (score - runner_up_score); emitting it
               would break the round-trip fixed point once both floats
               have been through %.9g *)
            [ ("runner_up_task", Int ru_task); ("runner_up_score", Flt ru_score) ])
  | Idle { clock; machine; cause } ->
      Obj
        [ ("type", Str "idle"); ("clock", Int clock); ("machine", Int machine);
          ("cause", Str (idle_cause_to_string cause)) ]
  | Exhausted { clock; machine; pool_size } ->
      Obj
        [ ("type", Str "exhausted"); ("clock", Int clock); ("machine", Int machine);
          ("pool_size", Int pool_size) ]
  | Churn { clock; machine; event; detail } ->
      Obj
        [ ("type", Str "churn"); ("clock", Int clock); ("machine", Int machine);
          ("event", Str event); ("detail", Flt detail) ]
  | Multiplier { clock; epoch; round; trigger; step; g_energy; g_aet;
                 lambda_energy; lambda_aet; alpha_before; beta_before;
                 gamma_before; alpha; beta; gamma } ->
      Obj
        [ ("type", Str "multiplier"); ("clock", Int clock); ("epoch", Int epoch);
          ("round", Int round); ("trigger", Str trigger); ("step", Flt step);
          ("g_energy", Flt g_energy); ("g_aet", Flt g_aet);
          ("lambda_energy", Flt lambda_energy); ("lambda_aet", Flt lambda_aet);
          ("alpha_before", Flt alpha_before); ("beta_before", Flt beta_before);
          ("gamma_before", Flt gamma_before); ("alpha", Flt alpha);
          ("beta", Flt beta); ("gamma", Flt gamma) ]

let jsonl_lines t =
  let meta =
    Json.Obj
      [ ("type", Json.Str "meta"); ("schema", Json.Str schema);
        ("entries", Json.Int t.length) ]
  in
  Json.to_string meta :: List.rev_map (fun e -> Json.to_string (json_of_entry e)) t.rev_entries

let to_jsonl t = String.concat "\n" (jsonl_lines t) ^ "\n"

let write_jsonl path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))

(* ---- parsing ---- *)

let of_jsonl s =
  let t = create () in
  let fail line fmt =
    Fmt.kstr (fun m -> invalid_arg (Fmt.str "Ledger.of_jsonl: line %d: %s" line m)) fmt
  in
  let req_int line v k =
    match Json.get_int k v with Some i -> i | None -> fail line "missing int %S" k
  in
  let req_float line v k =
    match Json.get_float k v with Some f -> f | None -> fail line "missing float %S" k
  in
  let req_str line v k =
    match Json.get_string k v with Some s -> s | None -> fail line "missing string %S" k
  in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if String.trim line <> "" then begin
        let v =
          try Json.parse line
          with Json.Parse_error m -> fail lineno "bad JSON (%s)" m
        in
        match Json.get_string "type" v with
        | None -> fail lineno "no \"type\" field"
        | Some "meta" ->
            let sch = req_str lineno v "schema" in
            if sch <> schema then
              fail lineno "schema %S, expected %S" sch schema
        | Some "candidate" ->
            let clock = req_int lineno v "clock"
            and machine = req_int lineno v "machine"
            and task = req_int lineno v "task" in
            let fate =
              match req_str lineno v "fate" with
              | "rejected" -> (
                  match req_str lineno v "reason" with
                  | "parent_unmapped" ->
                      Rejected (Parent_unmapped { parent = req_int lineno v "parent" })
                  | "exec_energy" ->
                      Rejected
                        (Exec_energy
                           {
                             version = req_str lineno v "version";
                             required = req_float lineno v "required";
                             available = req_float lineno v "available";
                           })
                  | "comm_energy" ->
                      Rejected
                        (Comm_energy
                           {
                             version = req_str lineno v "version";
                             exec = req_float lineno v "exec";
                             comm = req_float lineno v "comm";
                             available = req_float lineno v "available";
                           })
                  | "ineligible" -> Rejected Ineligible
                  | r -> fail lineno "unknown rejection reason %S" r)
              | "scored" ->
                  Scored
                    {
                      version = req_str lineno v "version";
                      score = req_float lineno v "score";
                      rank = req_int lineno v "rank";
                    }
              | "horizon_missed" ->
                  Horizon_missed
                    {
                      version = req_str lineno v "version";
                      score = req_float lineno v "score";
                      rank = req_int lineno v "rank";
                      planned_start = req_int lineno v "planned_start";
                    }
              | "outscored" ->
                  Outscored
                    {
                      version = req_str lineno v "version";
                      score = req_float lineno v "score";
                      rank = req_int lineno v "rank";
                    }
              | f -> fail lineno "unknown fate %S" f
            in
            record t (Candidate { clock; machine; task; fate })
        | Some "commit" ->
            record t
              (Commit
                 {
                   clock = req_int lineno v "clock";
                   machine = req_int lineno v "machine";
                   task = req_int lineno v "task";
                   version = req_str lineno v "version";
                   start = req_int lineno v "start";
                   stop = req_int lineno v "stop";
                   score = req_float lineno v "score";
                   alpha_term = req_float lineno v "alpha_term";
                   beta_term = req_float lineno v "beta_term";
                   gamma_term = req_float lineno v "gamma_term";
                   pool_size = req_int lineno v "pool_size";
                   pool_score = req_float lineno v "pool_score";
                   energy_remaining = req_float lineno v "energy_remaining";
                   runner_up =
                     (match (Json.get_int "runner_up_task" v,
                             Json.get_float "runner_up_score" v) with
                     | Some task, Some score -> Some (task, score)
                     | _ -> None);
                 })
        | Some "idle" ->
            let cause =
              match req_str lineno v "cause" with
              | "busy" -> Busy
              | "down" -> Down
              | "pool_empty" -> Pool_empty
              | "horizon_miss" -> Horizon_miss
              | c -> fail lineno "unknown idle cause %S" c
            in
            record t
              (Idle
                 {
                   clock = req_int lineno v "clock";
                   machine = req_int lineno v "machine";
                   cause;
                 })
        | Some "exhausted" ->
            let int = req_int lineno v in
            let clock = int "clock" and machine = int "machine" in
            record t (Exhausted { clock; machine; pool_size = int "pool_size" })
        | Some "churn" ->
            record t
              (Churn
                 {
                   clock = req_int lineno v "clock";
                   machine = req_int lineno v "machine";
                   event = req_str lineno v "event";
                   detail = req_float lineno v "detail";
                 })
        | Some "multiplier" ->
            record t
              (Multiplier
                 {
                   clock = req_int lineno v "clock";
                   epoch = req_int lineno v "epoch";
                   round = req_int lineno v "round";
                   trigger = req_str lineno v "trigger";
                   step = req_float lineno v "step";
                   g_energy = req_float lineno v "g_energy";
                   g_aet = req_float lineno v "g_aet";
                   lambda_energy = req_float lineno v "lambda_energy";
                   lambda_aet = req_float lineno v "lambda_aet";
                   alpha_before = req_float lineno v "alpha_before";
                   beta_before = req_float lineno v "beta_before";
                   gamma_before = req_float lineno v "gamma_before";
                   alpha = req_float lineno v "alpha";
                   beta = req_float lineno v "beta";
                   gamma = req_float lineno v "gamma";
                 })
        | Some other -> fail lineno "unknown entry type %S" other
      end)
    lines;
  t

let load_jsonl path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_jsonl s

(* ---- explain queries ---- *)

(* Why did subtask [task] map where it did? The commit entry carries the
   decomposition; the candidate history before it shows every step at
   which the subtask was considered and turned away. *)
let explain_task t ~task =
  let b = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let commit = ref None in
  let history = ref 0 in
  iter
    (fun e ->
      match e with
      | Commit c when c.task = task && !commit = None -> commit := Some e
      | Candidate c when c.task = task && !commit = None ->
          incr history;
          line "%a" pp_entry e
      | _ -> ())
    t;
  match !commit with
  | Some e ->
      line "%a" pp_entry e;
      Some
        (Fmt.str "subtask %d: %d prior consideration(s) before commit\n%s" task !history
           (Buffer.contents b))
  | None ->
      if !history = 0 then None
      else
        Some
          (Fmt.str "subtask %d: never committed; %d consideration(s)\n%s" task !history
             (Buffer.contents b))

(* Why did machine [machine] sit idle at clock [clock]? Reports the idle
   cause recorded at that step and, when the pool was the problem, every
   candidate verdict recorded for that (clock, machine). *)
let explain_idle t ~machine ~clock =
  let b = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let found = ref false in
  iter
    (fun e ->
      match e with
      | Idle i when i.machine = machine && i.clock = clock ->
          found := true;
          line "%a" pp_entry e
      | Commit c when c.machine = machine && c.clock = clock ->
          found := true;
          line "machine %d was not idle at clock %d:" machine clock;
          line "%a" pp_entry e
      | Candidate c when c.machine = machine && c.clock = clock ->
          line "%a" pp_entry e
      | _ -> ())
    t;
  if !found then Some (Buffer.contents b) else None

(* Why did dual round [round] move the multipliers? Reports the full
   update record — trigger, epoch, step size, measured subgradients and
   the weights before/after — plus any churn events recorded at the same
   clock (the usual reason a round fired off-epoch). *)
let explain_multiplier t ~round =
  (* churn entries at the update's clock are recorded BEFORE the update
     they provoked, so locate the round's clock first, then render that
     clock's churn context followed by the update itself *)
  let at_clock = ref None in
  iter
    (function
      | Multiplier m when m.round = round && !at_clock = None ->
          at_clock := Some m.clock
      | _ -> ())
    t;
  match !at_clock with
  | None -> None
  | Some k ->
      let b = Buffer.create 256 in
      let line fmt =
        Fmt.kstr (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt
      in
      iter
        (fun e ->
          match e with
          | Churn c when c.clock = k -> line "%a" pp_entry e
          | Multiplier m when m.round = round -> line "%a" pp_entry e
          | _ -> ())
        t;
      Some (Buffer.contents b)

(* ---- diff ---- *)

(* The DECISION stream of a ledger: commits and idles, in order. Candidate
   and exhausted entries are context (they explain a decision); churn entries are inputs
   rather than scheduler choices; multiplier entries are controller state,
   whose mapping consequences show up as later commits anyway. *)
let decisions t =
  List.filter
    (function
      | Commit _ | Idle _ -> true
      | Candidate _ | Exhausted _ | Churn _ | Multiplier _ -> false)
    (Array.to_list (entries t))

(* Two decisions are the SAME decision iff their structural fields agree —
   where and what was mapped, or why nothing was. Scores are deliberately
   not compared: two runs with different Lagrangian weights score every
   pool differently, yet the interesting question is where the *choices*
   first part ways (the score decompositions are then reported for exactly
   that point). *)
let same_decision a b =
  match (a, b) with
  | Commit x, Commit y ->
      x.clock = y.clock && x.machine = y.machine && x.task = y.task
      && x.version = y.version && x.start = y.start && x.stop = y.stop
  | Idle x, Idle y -> x.clock = y.clock && x.machine = y.machine && x.cause = y.cause
  | _ -> false

type divergence = {
  div_index : int;  (** position in the decision stream *)
  div_left : entry option;  (** [None]: the left stream ended first *)
  div_right : entry option;
}

let first_divergence left right =
  let rec walk i l r =
    match (l, r) with
    | [], [] -> None
    | x :: _, [] -> Some { div_index = i; div_left = Some x; div_right = None }
    | [], y :: _ -> Some { div_index = i; div_left = None; div_right = Some y }
    | x :: ls, y :: rs ->
        if same_decision x y then walk (i + 1) ls rs
        else Some { div_index = i; div_left = Some x; div_right = Some y }
  in
  walk 0 (decisions left) (decisions right)

let pp_divergence ppf d =
  let side name = function
    | None -> Fmt.pf ppf "  %s: (stream ended)@." name
    | Some e -> Fmt.pf ppf "  %s: %a@." name pp_entry e
  in
  Fmt.pf ppf "first divergent decision at index %d:@." d.div_index;
  side "left " d.div_left;
  side "right" d.div_right
