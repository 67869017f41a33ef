(* Execution tracing — the paper's SLRH "stored a historical record of all
   critical parameters for later analysis" (Section IV). That record is
   the decision ledger; the trace is its compact per-decision view (one
   event per commit or exhausted walk), which can be summarised or
   exported as CSV rows for external analysis. *)

open Agrid_workload

type kind =
  | Assigned of {
      task : int;
      version : Version.t;
      start : int;
      stop : int;
      score : float;  (** objective value that ranked the candidate *)
      pool_size : int;
      energy_remaining : float;  (** on the target machine, after commit *)
    }
  | Pool_empty  (** the machine was free but no candidate was feasible *)
  | Horizon_miss of { pool_size : int }
      (** candidates existed but none could start within the horizon *)

type event = { clock : int; machine : int; kind : kind }

type t = event array

(* Commit -> [Assigned] (ranked by the walk's own pool score, battery as
   left by the commit); Exhausted -> [Pool_empty] or [Horizon_miss]. *)
let event_of_entry = function
  | Agrid_obs.Ledger.Commit
      { clock; machine; task; version; start; stop; pool_score; pool_size;
        energy_remaining; _ } ->
      let version =
        match Version.of_string version with
        | Some v -> v
        | None -> invalid_arg (Fmt.str "Trace.of_ledger: unknown version %S" version)
      in
      let score = pool_score in
      let kind = Assigned { task; version; start; stop; score; pool_size; energy_remaining } in
      Some { clock; machine; kind }
  | Agrid_obs.Ledger.Exhausted { clock; machine; pool_size } ->
      let kind = if pool_size = 0 then Pool_empty else Horizon_miss { pool_size } in
      Some { clock; machine; kind }
  | Candidate _ | Idle _ | Churn _ | Multiplier _ -> None

let of_ledger l =
  Array.of_list (List.filter_map event_of_entry (Array.to_list (Agrid_obs.Ledger.entries l)))

let length = Array.length
let events t = t

type summary = {
  n_assigned : int;
  n_pool_empty : int;
  n_horizon_miss : int;
  mean_pool_size : float;  (** over assignment events *)
  first_assignment_clock : int option;
  last_assignment_clock : int option;
}

let summarize t =
  let count p = Array.fold_left (fun n e -> if p e.kind then n + 1 else n) 0 t in
  let assigned =
    List.filter_map
      (fun e -> match e.kind with Assigned a -> Some (e.clock, a.pool_size) | _ -> None)
      (Array.to_list t)
  in
  let n_assigned = List.length assigned in
  let clock pick =
    match assigned with
    | [] -> None
    | (c, _) :: rest -> Some (List.fold_left (fun a (c, _) -> pick a c) c rest)
  in
  {
    n_assigned;
    n_pool_empty = count (function Pool_empty -> true | _ -> false);
    n_horizon_miss = count (function Horizon_miss _ -> true | _ -> false);
    mean_pool_size =
      (if n_assigned = 0 then 0.
       else
         float_of_int (List.fold_left (fun n (_, p) -> n + p) 0 assigned)
         /. float_of_int n_assigned);
    first_assignment_clock = clock min;
    last_assignment_clock = clock max;
  }

let csv_header =
  [ "clock"; "machine"; "event"; "task"; "version"; "start"; "stop"; "score";
    "pool_size"; "energy_remaining" ]

let csv_rows t =
  Array.to_list t
  |> List.map (fun e ->
         let base = [ string_of_int e.clock; string_of_int e.machine ] in
         match e.kind with
         | Assigned { task; version; start; stop; score; pool_size; energy_remaining } ->
             base
             @ [ "assigned"; string_of_int task; Version.to_string version;
                 string_of_int start; string_of_int stop; Fmt.str "%.6f" score;
                 string_of_int pool_size; Fmt.str "%.6f" energy_remaining ]
         | Pool_empty -> base @ [ "pool_empty"; ""; ""; ""; ""; ""; "0"; "" ]
         | Horizon_miss { pool_size } ->
             base @ [ "horizon_miss"; ""; ""; ""; ""; ""; string_of_int pool_size; "" ])

(* Per-row parse shared by the strict importer and the lint pass. *)
exception Row_error of string

let parse_csv_row row =
  let fail fmt = Fmt.kstr (fun msg -> raise (Row_error msg)) fmt in
  let int_of what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail "bad %s %S" what s
  in
  let float_of what s =
    match float_of_string_opt s with
    | Some v -> v
    | None -> fail "bad %s %S" what s
  in
  try
    match row with
    | [ clock; machine; event; task; version; start; stop; score; pool_size;
        energy_remaining ] ->
        let clock = int_of "clock" clock in
        let machine = int_of "machine" machine in
        let kind =
          match event with
          | "assigned" ->
              let version =
                match Version.of_string version with
                | Some v -> v
                | None -> fail "bad version %S" version
              in
              Assigned
                {
                  task = int_of "task" task;
                  version;
                  start = int_of "start" start;
                  stop = int_of "stop" stop;
                  score = float_of "score" score;
                  pool_size = int_of "pool_size" pool_size;
                  energy_remaining = float_of "energy_remaining" energy_remaining;
                }
          | "pool_empty" -> Pool_empty
          | "horizon_miss" -> Horizon_miss { pool_size = int_of "pool_size" pool_size }
          | other -> fail "unknown event %S" other
        in
        Ok (clock, machine, kind)
    | _ ->
        fail "expected %d fields, got %d" (List.length csv_header) (List.length row)
  with Row_error msg -> Error msg

(* Inverse of [csv_rows] (header excluded), for re-importing an exported
   trace. Floats round-trip through the writer's %.6f, so scores and
   energies are recovered to 1e-6, not bit-exactly. *)
let of_csv_rows rows =
  Array.of_list
    (List.mapi
       (fun i row ->
         match parse_csv_row row with
         | Ok (clock, machine, kind) -> { clock; machine; kind }
         | Error msg -> invalid_arg (Fmt.str "Trace.of_csv_rows: row %d: %s" i msg))
       rows)

(* Lint pass behind `agrid trace lint`: where [of_csv_rows] stops at the
   first malformed row, this walks the whole file and reports every
   diagnostic, so a mangled export can be repaired in one edit round. *)
let lint_csv_rows rows =
  List.mapi
    (fun i row ->
      match parse_csv_row row with Ok _ -> None | Error msg -> Some (i, msg))
    rows
  |> List.filter_map Fun.id

let pp_summary ppf s =
  Fmt.pf ppf
    "assigned=%d pool_empty=%d horizon_miss=%d mean_pool=%.1f span=%a..%a"
    s.n_assigned s.n_pool_empty s.n_horizon_miss s.mean_pool_size
    Fmt.(option ~none:(any "-") int)
    s.first_assignment_clock
    Fmt.(option ~none:(any "-") int)
    s.last_assignment_clock
