(* The Simplified Lagrangian Receding Horizon resource manager (paper
   Section IV, flow chart of Figure 1) and its three variants (Section V).

   Clock-driven: every [delta_t] cycles the heuristic sweeps the machines in
   numerical order; for each machine that is not executing at the current
   cycle it builds the feasible candidate pool U, scores both versions of
   every pool member with the global objective, keeps the better version,
   orders the pool by score, and walks it planning exact start times; the
   first candidate whose planned start falls within the receding horizon
   [now, now + horizon] is committed.

   Variants:
   - V1 (SLRH-1): at most one assignment per machine per timestep.
   - V2 (SLRH-2): keeps walking the SAME pool, committing every candidate
     that still fits the horizon, without re-scoring or re-checking energy —
     the staleness is faithful to the paper and is precisely why SLRH-2
     rarely produces feasible complete mappings.
   - V3 (SLRH-3): like V2 but recreates and re-scores the pool after every
     assignment (children of the just-mapped subtask join immediately).

   "Simplified" = the Lagrangian weights stay constant for the whole run;
   Adaptive (this library) lifts that restriction as the paper's
   future-work extension. *)

open Agrid_workload
open Agrid_sched

type variant = V1 | V2 | V3

let variant_to_string = function V1 -> "SLRH-1" | V2 -> "SLRH-2" | V3 -> "SLRH-3"

(* The paper sweeps machines "in simple numerical order" each timestep;
   the alternatives are ablations on that design choice. *)
type machine_order =
  | Numerical  (** the paper's order *)
  | Fast_first  (** fast-class machines before slow ones *)
  | Most_energy_first  (** recompute each step by remaining battery *)

let machine_order_to_string = function
  | Numerical -> "numerical"
  | Fast_first -> "fast-first"
  | Most_energy_first -> "most-energy-first"

(* [`Rescan] is the paper-literal loop: rebuild and re-price the candidate
   pool from scratch for every free machine on every timestep, score it
   into a boxed list and walk that list. It is kept, unshared, as the
   differential oracle.
   [`Soa] (the default) reuses work whose inputs provably did not change
   — memoised energy bounds, parent-derived score inputs, and whole pools
   when no commit happened since they were built — on the preallocated
   flat arrays of {!Pool.Flat}, batch-filtering and batch-scoring each
   pool in single passes and walking it in place, so a steady-state
   timestep allocates nothing at all. It also skips work whose result is
   already known: candidates whose parent-ready bound lies past the
   horizon are not planned, and timesteps on which nothing can change are
   jumped over (DESIGN.md section 13). The differential test suite pins
   its schedules bit-identical to [`Rescan], and its work counts no
   larger.
   A run whose sink carries a decision ledger takes the [`Rescan] walk
   whatever [mode] says: it is the only walk that records decisions. *)
type mode = [ `Rescan | `Soa ]

let mode_to_string = function `Rescan -> "rescan" | `Soa -> "soa"

let mode_of_string = function
  | "rescan" -> Some `Rescan
  | "soa" -> Some `Soa
  | _ -> None

type params = {
  variant : variant;
  delta_t : int;  (** timestep in clock cycles (paper: 10) *)
  horizon : int;  (** receding horizon H in clock cycles (paper: 100) *)
  weights : Objective.weights;
  feas_mode : Feasibility.mode;
  mode : mode;
      (** [`Soa] (the default) runs pools on the flat preallocated arena;
          [`Rescan] is the naive rebuild kept as the differential oracle
          and taken by every ledger run. Output is bit-identical in both. *)
  machine_order : machine_order;
  obs : Agrid_obs.Sink.t;
      (** telemetry sink for spans, counters and per-timestep snapshots;
          the default no-op sink is provably inert — the scheduler's
          output is bit-identical with or without it (tested) *)
  cancel : unit -> bool;
      (** cooperative cancellation, polled once per swept timestep
          before any work for that step: returning [true] ends the run
          where it stands (the scenario service's per-job wall-clock
          deadline). The default never cancels, leaving the loop
          bit-identical to the uncancellable one. *)
  adapt : Adapt.t option;
      (** online dual-ascent controller: when set, scoring reads ITS
          weights (seeded from [weights]) instead of the static ones, and
          the main loop runs a dual round at each commit epoch. [None]
          (the default) keeps the run bit-identical to the historical
          constant-weights scheduler. *)
}

let default_params ?(variant = V1) weights =
  {
    variant;
    delta_t = 10;
    horizon = 100;
    weights;
    feas_mode = Feasibility.Conservative;
    mode = `Soa;
    machine_order = Numerical;
    obs = Agrid_obs.Sink.noop;
    cancel = (fun () -> false);
    adapt = None;
  }

(* The weights scoring reads THIS timestep: the adaptive controller's
   current iterate when one is attached, the static params otherwise.
   Re-read at every use, so a dual round between timesteps changes
   scoring without touching any cached pool state (pool membership and
   memoised energy bounds never read the weights). *)
let live_weights params =
  match params.adapt with None -> params.weights | Some a -> Adapt.weights a

(* Pool sizes live well under a hundred for every workload here; linear
   buckets of 4 keep the histogram readable. *)
let pool_size_bounds = Agrid_obs.Hist.linear_bounds ~lo:0. ~hi:64. ~n:16

(* Visit order of the machines for one timestep. Sorting keys are stable
   (ties fall back to the numerical order). *)
let machine_sequence params sched ~n_machines =
  match params.machine_order with
  | Numerical -> Array.init n_machines Fun.id
  | Fast_first ->
      let grid = Agrid_workload.Workload.grid (Schedule.workload sched) in
      let order = Array.init n_machines Fun.id in
      let key j =
        match (Agrid_platform.Grid.machine grid j).Agrid_platform.Machine.klass with
        | Agrid_platform.Machine.Fast -> 0
        | Agrid_platform.Machine.Slow -> 1
      in
      Array.sort (fun a b -> compare (key a, a) (key b, b)) order;
      order
  | Most_energy_first ->
      let order = Array.init n_machines Fun.id in
      Array.sort
        (fun a b ->
          compare
            (-.Schedule.energy_remaining sched a, a)
            (-.Schedule.energy_remaining sched b, b))
        order;
      order

type stats = {
  clock_steps : int;  (** timesteps the clock passed, jumped ones included *)
  pools_built : int;
  candidates_scored : int;
  plans_attempted : int;
  assignments : int;
}

type outcome = {
  schedule : Schedule.t;
  completed : bool;  (** all subtasks mapped before the clock passed tau *)
  final_clock : int;
  stats : stats;
  wall_seconds : float;  (** heuristic execution time (Figure 6 metric) *)
}

(* Core infeasibility verdicts carry [Version.t]; the ledger lives below
   core in the library stack, so its entries carry the version name. *)
let reject_of_infeasibility = function
  | Feasibility.Parent_unmapped { parent } ->
      Agrid_obs.Ledger.Parent_unmapped { parent }
  | Feasibility.Exec_energy { version; required; available } ->
      Agrid_obs.Ledger.Exec_energy
        { version = Version.to_string version; required; available }
  | Feasibility.Comm_energy { version; exec; comm; available } ->
      Agrid_obs.Ledger.Comm_energy
        { version = Version.to_string version; exec; comm; available }

(* ---- decision-ledger records, written by the rescan walk only ---- *)

let record_candidate led ~clock ~machine ~task fate =
  Agrid_obs.Ledger.record led
    (Agrid_obs.Ledger.Candidate { clock; machine; task; fate })

let record_idle ledger ~clock ~machine cause =
  match ledger with
  | None -> ()
  | Some led ->
      Agrid_obs.Ledger.record led (Agrid_obs.Ledger.Idle { clock; machine; cause })

(* The winner's score decomposition, computed before [Schedule.commit]
   ([estimate] reads the schedule as it stood when the decision was made,
   and is_mapped still excludes only earlier commits), so for SLRH-2's
   stale pools the recorded terms are the fresh truth even when the stale
   pool score differs. *)
let commit_parts params sched ~machine ~now ~task ~version =
  Objective.estimate_parts (live_weights params) sched ~task ~version ~machine ~now

(* The winner's entry, recorded after [Schedule.commit] so the battery
   reads post-commit; [pool_score] is the score the walk ranked it by. *)
let record_commit sched led ~parts ~machine ~now ~task ~version ~pool_size
    ~pool_score ~runner_up ~start ~stop =
  Agrid_obs.Ledger.record led
    (Agrid_obs.Ledger.Commit
       {
         clock = now;
         machine;
         task;
         version = Version.to_string version;
         start;
         stop;
         score = parts.Objective.total;
         alpha_term = parts.Objective.t100_term;
         beta_term = parts.Objective.energy_term;
         gamma_term = parts.Objective.aet_term;
         pool_size;
         pool_score;
         energy_remaining = Schedule.energy_remaining sched machine;
         runner_up;
       })

(* The walk's verdict when nothing fit: counted as an empty pool or a
   horizon miss. *)
let walk_exhausted params ~pool_size =
  Agrid_obs.Sink.incr params.obs
    (if pool_size = 0 then "slrh/pool_empty" else "slrh/horizon_miss")

(* Ledger idle entries answer "why did machine J sit idle at step K?":
   one per swept machine per timestep that ends with no assignment.
   [Busy]/[Down] are decided before the pool is even built; a machine
   that built pools but committed nothing records the last pool's
   emptiness ([Pool_empty] vs [Horizon_miss]). *)
let idle_cause ~pool_size =
  if pool_size = 0 then Agrid_obs.Ledger.Pool_empty else Agrid_obs.Ledger.Horizon_miss

(* ---- the rescan oracle ----

   One scored pool: best version and score per candidate, sorted by
   decreasing objective, ties broken on task id.

   When the sink carries a decision ledger, every unmapped task that
   stayed out of the pool is recorded with its typed rejection —
   including tasks the churn retry policy made ineligible. The pool
   itself is computed exactly as before; all ledger work is additive and
   guarded on [Sink.ledger]. *)
let scored_pool params ~eligible sched ~machine ~now stats_candidates =
  let obs = params.obs in
  let pool =
    Agrid_obs.Sink.span obs "slrh/pool_build" (fun () ->
        let raw = Feasibility.candidate_pool ~mode:params.feas_mode ~obs sched ~machine in
        (match Agrid_obs.Sink.ledger obs with
        | None -> ()
        | Some led ->
            List.iter
              (fun (task, why) ->
                record_candidate led ~clock:now ~machine ~task
                  (Agrid_obs.Ledger.Rejected (reject_of_infeasibility why)))
              (Feasibility.explain_rejections ~mode:params.feas_mode sched ~machine);
            List.iter
              (fun task ->
                if not (eligible task) then
                  record_candidate led ~clock:now ~machine ~task
                    (Agrid_obs.Ledger.Rejected Agrid_obs.Ledger.Ineligible))
              raw);
        List.filter eligible raw)
  in
  stats_candidates := !stats_candidates + List.length pool;
  let scored =
    Agrid_obs.Sink.span obs "slrh/score" (fun () ->
        List.map
          (fun task ->
            let version, score =
              Objective.best_version (live_weights params) sched ~task ~machine ~now
            in
            (task, version, score))
          pool)
  in
  if Agrid_obs.Sink.enabled obs then begin
    let n = List.length pool in
    Agrid_obs.Sink.observe obs "slrh/pool_size" ~bounds:pool_size_bounds
      (float_of_int n);
    Agrid_obs.Sink.add obs "objective/version_evals" (2 * n);
    List.iter
      (fun (_, _, s) ->
        Agrid_obs.Sink.observe obs "slrh/score_value" ~bounds:Objective.score_bounds s)
      scored;
    Agrid_obs.Sink.max_gauge obs "slrh/pool_hwm" (float_of_int n)
  end;
  List.sort
    (fun (ta, _, a) (tb, _, b) ->
      let c = Float.compare b a in
      if c <> 0 then c else compare ta tb)
    scored

(* Walk a scored pool in order; plan each candidate and commit the first
   whose start fits the horizon. Returns the committed task, if any.

   Ledger fates per pool member: the winner gets a [Commit] entry with
   the score decomposition and the runner-up margin; walked-but-late
   candidates get [Horizon_missed] with their planned start; unwalked
   ones get [Outscored]; already-mapped stragglers in a stale pool keep
   their [Scored] rank. *)
let try_assign params sched ~machine ~now ~scored plans_attempted =
  let obs = params.obs in
  let ledger = Agrid_obs.Sink.ledger obs in
  let pool_size = List.length scored in
  let candidate task fate =
    match ledger with
    | None -> ()
    | Some led -> record_candidate led ~clock:now ~machine ~task fate
  in
  let rec walk rank = function
    | [] ->
        walk_exhausted params ~pool_size;
        (match ledger with
        | None -> ()
        | Some led ->
            Agrid_obs.Ledger.record led
              (Agrid_obs.Ledger.Exhausted { clock = now; machine; pool_size }));
        None
    | (task, version, score) :: rest ->
        if Schedule.is_mapped sched task then begin
          candidate task
            (Agrid_obs.Ledger.Scored
               { version = Version.to_string version; score; rank });
          walk (rank + 1) rest
        end
        else begin
          incr plans_attempted;
          let plan =
            Agrid_obs.Sink.span obs "slrh/plan" (fun () ->
                Schedule.plan sched ~task ~version ~machine ~not_before:now)
          in
          if plan.Schedule.pl_start <= now + params.horizon then begin
            (match ledger with
            | None -> Schedule.commit sched plan
            | Some led ->
                let parts = commit_parts params sched ~machine ~now ~task ~version in
                Schedule.commit sched plan;
                let runner_up =
                  List.find_map
                    (fun (t, _, s) ->
                      if t <> task && not (Schedule.is_mapped sched t) then Some (t, s)
                      else None)
                    scored
                in
                record_commit sched led ~parts ~machine ~now ~task ~version
                  ~pool_size ~pool_score:score ~runner_up ~start:plan.Schedule.pl_start
                  ~stop:plan.Schedule.pl_stop;
                List.iteri
                  (fun i (t, v, s) ->
                    let fate =
                      let version = Version.to_string v in
                      let r = rank + 1 + i in
                      if Schedule.is_mapped sched t then
                        Agrid_obs.Ledger.Scored { version; score = s; rank = r }
                      else Agrid_obs.Ledger.Outscored { version; score = s; rank = r }
                    in
                    candidate t fate)
                  rest);
            Some task
          end
          else begin
            candidate task
              (Agrid_obs.Ledger.Horizon_missed
                 {
                   version = Version.to_string version;
                   score;
                   rank;
                   planned_start = plan.Schedule.pl_start;
                 });
            walk (rank + 1) rest
          end
        end
  in
  walk 0 scored

(* ---- the flat (SoA) walk ----

   Same decisions, no boxes: pools live in the {!Pool.Flat} arena, are
   rebuilt with {!Feasibility.filter_into} and re-scored with
   {!Objective.score_into} in single passes, and are walked in place
   through the shared walk permutation, each position selected only when
   the walk reaches it ({!Pool.Flat.nth}). A row stamped with the commit
   epoch ([Schedule.n_mapped]) is reused while the epoch is unchanged
   (DESIGN.md section 13). Telemetry, when the sink is enabled, replays
   the rescan path's span/counter/histogram sequence verbatim (fill order
   IS the boxed pool order, and observation loops run before selecting).
   It records no decision ledger: a ledger run takes the rescan walk.

   The walk does not plan a candidate whose parent-ready bound
   ([Pool.Flat.bound_ready], priced by [score_into]) already lies past
   [now + horizon]: [Schedule.plan] can only start it later still, so it
   would miss. Walk order and the committed candidate are unchanged. The
   smallest [bound - horizon] over such candidates is folded into
   [wake], which the clock loop uses to jump idle timesteps.

   Closure discipline: every function below that runs on the
   steady-state path is a top-level function, every telemetry closure is
   built only under [Sink.enabled], and the walk recursions carry their
   state in arguments — so a swept timestep whose pools are reused and
   empty, and a jumped one, perform zero heap allocation (pinned by
   test_alloc). *)

type soa = {
  arena : Pool.Flat.t;
  mutable bounded : int;  (* candidates the bound ruled out, whole run *)
  mutable wake : int;
      (* this sweep: earliest clock at which a bounded-out candidate could
         fit or a busy machine frees; [max_int] when none *)
}

(* Rebuild machine's pool into its arena row at [epoch]. *)
let soa_rebuild params (s : soa) ~eligible sched ~machine ~epoch =
  let obs = params.obs in
  let arena = s.arena in
  let row = arena.Pool.Flat.rows.(machine) in
  let n =
    Feasibility.filter_into ~obs arena.Pool.Flat.memo sched ~machine ~eligible
      ~dst:(Pool.Flat.ensure arena row (Schedule.n_ready sched))
      row.Pool.Flat.counts
  in
  row.Pool.Flat.count <- n;
  Pool.Flat.note_occupancy arena n;
  row.Pool.Flat.epoch <- epoch;
  Agrid_obs.Sink.incr obs "slrh/pool_rebuilt"

(* [scored_pool] on the arena: obtain (reuse or rebuild), re-score, and
   start a fresh selection. Returns the pool size; the walk reads its
   order through [Pool.Flat.nth].
   Re-scoring happens every timestep even on reuse — scores depend on
   [now] and the timelines. *)
let soa_scored_pool params (s : soa) ~eligible sched ~machine ~now stats_candidates =
  let obs = params.obs in
  let arena = s.arena in
  let enabled = Agrid_obs.Sink.enabled obs in
  let epoch = Schedule.n_mapped sched in
  let row = arena.Pool.Flat.rows.(machine) in
  if row.Pool.Flat.epoch = epoch then begin
    (* unchanged inputs: replay the build's telemetry, keep the row *)
    if enabled then
      Agrid_obs.Sink.span obs "slrh/pool_build" (fun () ->
          Agrid_obs.Sink.span obs "feasibility/filter" (fun () ->
              let c = row.Pool.Flat.counts in
              Agrid_obs.Sink.add obs "feasibility/checked" c.Feasibility.checked;
              Agrid_obs.Sink.add obs "feasibility/admitted" c.Feasibility.admitted);
          Agrid_obs.Sink.incr obs "slrh/pool_reused")
  end
  else if enabled then
    Agrid_obs.Sink.span obs "slrh/pool_build" (fun () ->
        soa_rebuild params s ~eligible sched ~machine ~epoch)
  else soa_rebuild params s ~eligible sched ~machine ~epoch;
  let n = row.Pool.Flat.count in
  stats_candidates := !stats_candidates + n;
  let w = live_weights params in
  if enabled then begin
    (* timed directly rather than through [Sink.span]: the batch pass is
       short enough that the span wrapper's closures would dominate the
       measurement *)
    let t0 = Agrid_obs.Clock.monotonic_ns () in
    Objective.score_into w sched ~machine ~now ~n ~tasks:row.Pool.Flat.tasks
      ~bound_ready:arena.Pool.Flat.bound_ready
      ~bound_comm:arena.Pool.Flat.bound_comm
      ~bound_known:arena.Pool.Flat.bound_known ~versions:row.Pool.Flat.versions
      ~scores:row.Pool.Flat.scores;
    Agrid_obs.Sink.record_span obs "slrh/score"
      (Agrid_obs.Clock.elapsed_seconds ~since:t0);
    Agrid_obs.Sink.observe obs "slrh/pool_size" ~bounds:pool_size_bounds
      (float_of_int n);
    Agrid_obs.Sink.add obs "objective/version_evals" (2 * n);
    let scores = row.Pool.Flat.scores in
    for k = 0 to n - 1 do
      Agrid_obs.Sink.observe obs "slrh/score_value" ~bounds:Objective.score_bounds
        scores.(k)
    done;
    Agrid_obs.Sink.max_gauge obs "slrh/pool_hwm" (float_of_int n)
  end
  else if n > 0 then
    Objective.score_into w sched ~machine ~now ~n ~tasks:row.Pool.Flat.tasks
      ~bound_ready:arena.Pool.Flat.bound_ready
      ~bound_comm:arena.Pool.Flat.bound_comm
      ~bound_known:arena.Pool.Flat.bound_known ~versions:row.Pool.Flat.versions
      ~scores:row.Pool.Flat.scores;
  Pool.Flat.reset_order arena n;
  n

(* [try_assign] on the arena: walk the pool's order from position [i],
   plan each unmapped candidate the bound does not rule out, commit the
   first whose start fits the horizon; returns the committed task id or
   -1. [drained] counts the already-mapped stragglers in the pool
   (SLRH-2's commits from this same pool), so the exhausted pool's size
   leaves them out exactly as the rescan path's filtered list does.
   Top-level recursion, state in arguments: an exhausting walk over an
   empty reused pool allocates nothing. *)
let rec flat_walk params (s : soa) sched ~machine ~now ~drained n i plans_attempted =
  let obs = params.obs in
  if i >= n then begin
    walk_exhausted params ~pool_size:(n - drained);
    -1
  end
  else begin
    let arena = s.arena in
    let row = arena.Pool.Flat.rows.(machine) in
    let k = Pool.Flat.nth arena row ~n i in
    let task = row.Pool.Flat.tasks.(k) in
    let bound = arena.Pool.Flat.bound_ready.((task * arena.Pool.Flat.n_machines) + machine) in
    if Schedule.is_mapped sched task then
      flat_walk params s sched ~machine ~now ~drained n (i + 1) plans_attempted
    else if bound > now + params.horizon then begin
      (* ruled out without planning: [plan] cannot start before [bound] *)
      s.bounded <- s.bounded + 1;
      if bound - params.horizon < s.wake then s.wake <- bound - params.horizon;
      flat_walk params s sched ~machine ~now ~drained n (i + 1) plans_attempted
    end
    else begin
      incr plans_attempted;
      let version = row.Pool.Flat.versions.(k) in
      let start =
        if Agrid_obs.Sink.enabled obs then
          Agrid_obs.Sink.span obs "slrh/plan" (fun () ->
              Schedule.plan_into sched ~task ~version ~machine ~not_before:now)
        else Schedule.plan_into sched ~task ~version ~machine ~not_before:now
      in
      if start <= now + params.horizon then begin
        Schedule.commit_planned sched;
        task
      end
      else flat_walk params s sched ~machine ~now ~drained n (i + 1) plans_attempted
    end
  end

(* SLRH-2's drain on the flat path: keep walking the SAME stale pool
   (no re-score, no fresh selection — positions already selected stay
   final, later ones are selected as this walk reaches them) until a
   walk commits nothing. *)
let rec flat_drain params s sched ~machine ~now n drained plans_attempted assignments =
  if flat_walk params s sched ~machine ~now ~drained n 0 plans_attempted >= 0 then begin
    incr assignments;
    flat_drain params s sched ~machine ~now n (drained + 1) plans_attempted assignments
  end

(* SLRH-3 on the flat path: rebuild (epoch moved) and re-score after
   every commit. *)
let rec flat_v3 params s ~eligible sched ~machine ~now pools_built stats_candidates
    plans_attempted assignments =
  incr pools_built;
  let n = soa_scored_pool params s ~eligible sched ~machine ~now stats_candidates in
  if flat_walk params s sched ~machine ~now ~drained:0 n 0 plans_attempted >= 0 then begin
    incr assignments;
    flat_v3 params s ~eligible sched ~machine ~now pools_built stats_candidates
      plans_attempted assignments
  end

(* Where the clock goes after a sweep at [now] that planned nothing: the
   first grid point [now + k * delta_t] (k >= 1) at or after [wake], but
   never past [last], the first grid point beyond [tau] — where stepping
   would have ended the run anyway, so [final_clock] is unchanged. *)
let jump_target ~now ~delta_t ~tau ~wake =
  let last = now + ((((tau - now) / delta_t) + 1) * delta_t) in
  if wake >= last then last
  else if wake <= now + delta_t then now + delta_t
  else now + ((wake - now + delta_t - 1) / delta_t * delta_t)

let validate_params params =
  if params.delta_t <= 0 then invalid_arg "Slrh: delta_t must be positive";
  if params.horizon < 0 then invalid_arg "Slrh: horizon must be nonnegative"

(* Drive the clock loop over an existing schedule from [start_clock] until
   [until] (inclusive) or completion — the churn engine resumes a
   partially executed schedule after each grid event this way. [mask] marks the
   machines currently part of the grid (churn engine: down machines are
   skipped by the sweep but keep their indices); [eligible] filters the
   candidate pool (churn engine: deferred or permanently failed subtasks
   are not remappable). *)
let continue_run ?until ?(start_clock = 0) ?mask ?(eligible = fun _ -> true) params sched =
  validate_params params;
  if start_clock < 0 then invalid_arg "Slrh: negative start clock";
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let workload = Schedule.workload sched in
  let n_machines = Workload.n_machines workload in
  let up =
    match mask with
    | None -> fun _ -> true
    | Some a ->
        if Array.length a <> n_machines then
          invalid_arg "Slrh: mask length does not match machine count";
        fun j -> a.(j)
  in
  let tau = match until with Some u -> u | None -> Workload.tau workload in
  let obs = params.obs in
  let ledger = Agrid_obs.Sink.ledger obs in
  (* The flat walk records no decisions, so a ledger run takes the
     rescan walk whatever [mode] says: the same ledger bytes, from the
     one walk that writes them. *)
  let soa =
    match (params.mode, ledger) with
    | `Rescan, _ | `Soa, Some _ -> None
    | `Soa, None ->
        Some
          {
            arena = Pool.Flat.create ~feas_mode:params.feas_mode workload;
            bounded = 0;
            wake = max_int;
          }
  in
  (* Idle-step jumps (DESIGN.md section 13), on every flat run: after a
     sweep that planned nothing, no timestep before the sweep's [wake]
     can plan or commit either — pools, feasibility and bounds only
     change at a commit, the mask and [eligible] are fixed for the run,
     and [Adapt] idles on a commit-free step — so the clock jumps to the
     first grid point at or after it. The telemetry sink never changes
     control flow: sink on and sink off take the same jumps. *)
  let clock_steps = ref 0 in
  let steps_jumped = ref 0 in
  let pools_built = ref 0 in
  let candidates_scored = ref 0 in
  let plans_attempted = ref 0 in
  let assignments = ref 0 in
  (* snapshot deltas: pools/candidates since the previous sample *)
  let snap_pools = ref 0 in
  let snap_cands = ref 0 in
  let now = ref start_clock in
  (* Cooperative cancellation, polled once per swept timestep as part of
     the loop condition: once [params.cancel] fires the run ends where it
     stands (no partial sweep). The default cancel is [fun () -> false],
     so the uncancelled loop is bit-identical to the historical one. *)
  let cancelled = ref false in
  let keep_going () =
    if (not !cancelled) && params.cancel () then cancelled := true;
    not !cancelled
  in
  let get_scored ~machine =
    scored_pool params ~eligible sched ~machine ~now:!now candidates_scored
  in
  (* Numerical and fast-first visit orders read nothing that changes
     within a run, so their masked sequence is hoisted out of the clock
     loop (bit-identical for every mode; the flat path additionally
     needs it to keep steady-state timesteps allocation-free).
     Most-energy-first re-sorts by live battery each step, as before. *)
  let static_sequence =
    match params.machine_order with
    | Numerical | Fast_first ->
        Some
          (Array.of_list
             (List.filter up
                (Array.to_list (machine_sequence params sched ~n_machines))))
    | Most_energy_first -> None
  in
  let machine = ref 0 in
  while keep_going () && (not (Schedule.all_mapped sched)) && !now <= tau do
    incr clock_steps;
    (match ledger with
    | None -> ()
    | Some _ ->
        for j = 0 to n_machines - 1 do
          if not (up j) then
            record_idle ledger ~clock:!now ~machine:j Agrid_obs.Ledger.Down
        done);
    let sequence =
      match static_sequence with
      | Some s -> s
      | None ->
          Array.of_list
            (List.filter up
               (Array.to_list (machine_sequence params sched ~n_machines)))
    in
    let n_swept = Array.length sequence in
    let plans_before = !plans_attempted in
    (match soa with Some s -> s.wake <- max_int | None -> ());
    machine := 0;
    while (not (Schedule.all_mapped sched)) && !machine < n_swept do
      let j = sequence.(!machine) in
      if Schedule.machine_free_at sched ~machine:j ~time:!now then begin
        match soa with
        | Some s -> (
            match params.variant with
            | V1 ->
                incr pools_built;
                let n =
                  soa_scored_pool params s ~eligible sched ~machine:j ~now:!now
                    candidates_scored
                in
                if
                  flat_walk params s sched ~machine:j ~now:!now ~drained:0 n 0
                    plans_attempted
                  >= 0
                then incr assignments
            | V2 ->
                incr pools_built;
                let n =
                  soa_scored_pool params s ~eligible sched ~machine:j ~now:!now
                    candidates_scored
                in
                flat_drain params s sched ~machine:j ~now:!now n 0 plans_attempted
                  assignments
            | V3 ->
                flat_v3 params s ~eligible sched ~machine:j ~now:!now pools_built
                  candidates_scored plans_attempted assignments)
        | None -> (
            match params.variant with
            | V1 ->
                incr pools_built;
                let scored = get_scored ~machine:j in
                (match try_assign params sched ~machine:j ~now:!now ~scored plans_attempted with
                | Some _ -> incr assignments
                | None ->
                    record_idle ledger ~clock:!now ~machine:j
                      (idle_cause ~pool_size:(List.length scored)))
            | V2 ->
                (* one stale pool, drained as far as the horizon allows *)
                incr pools_built;
                let rec drain scored committed =
                  match try_assign params sched ~machine:j ~now:!now ~scored plans_attempted with
                  | Some task ->
                      incr assignments;
                      drain (List.filter (fun (i, _, _) -> i <> task) scored) (committed + 1)
                  | None ->
                      if committed = 0 then
                        record_idle ledger ~clock:!now ~machine:j
                          (idle_cause ~pool_size:(List.length scored))
                in
                drain (get_scored ~machine:j) 0
            | V3 ->
                (* rebuild and re-score the pool after every assignment *)
                let rec rebuild committed =
                  incr pools_built;
                  let scored = get_scored ~machine:j in
                  match try_assign params sched ~machine:j ~now:!now ~scored plans_attempted with
                  | Some _ ->
                      incr assignments;
                      rebuild (committed + 1)
                  | None ->
                      if committed = 0 then
                        record_idle ledger ~clock:!now ~machine:j
                          (idle_cause ~pool_size:(List.length scored))
                in
                rebuild 0)
      end
      else begin
        record_idle ledger ~clock:!now ~machine:j Agrid_obs.Ledger.Busy;
        match soa with
        | Some s ->
            let free = Schedule.machine_free_from sched ~machine:j ~time:!now in
            if free < s.wake then s.wake <- free
        | None -> ()
      end;
      incr machine
    done;
    (* after the sweep: one dual round if this timestep committed anything
       (Adapt skips timesteps that advanced nothing) *)
    (match params.adapt with
    | None -> ()
    | Some a -> Adapt.on_timestep a ~obs ~clock:!now sched);
    (* guarded on [enabled]: the [~make] closure captures eight locals, so
       merely constructing it would allocate every timestep on the noop
       sink — the flat path's zero-allocation budget forbids that *)
    let sampled =
      Agrid_obs.Sink.enabled obs
      && Agrid_obs.Sink.tick_snapshot obs ~make:(fun () ->
             {
               Agrid_obs.Snapshot.clock = !now;
               mapped = Schedule.n_mapped sched;
               t100 = Schedule.n_primary sched;
               pools_built = !pools_built - !snap_pools;
               pool_candidates = !candidates_scored - !snap_cands;
               energy = Array.init n_machines (Schedule.energy_remaining sched);
             })
    in
    if sampled then begin
      snap_pools := !pools_built;
      snap_cands := !candidates_scored
    end;
    if not (Schedule.all_mapped sched) then
      match soa with
      | Some s when !plans_attempted = plans_before ->
          let target =
            jump_target ~now:!now ~delta_t:params.delta_t ~tau ~wake:s.wake
          in
          let passed = (target - !now - params.delta_t) / params.delta_t in
          clock_steps := !clock_steps + passed;
          steps_jumped := !steps_jumped + passed;
          now := target
      | _ -> now := !now + params.delta_t
  done;
  let wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0 in
  if Agrid_obs.Sink.enabled obs then begin
    Agrid_obs.Sink.record_span obs "slrh/run" wall_seconds;
    Agrid_obs.Sink.add obs "slrh/clock_steps" !clock_steps;
    Agrid_obs.Sink.add obs "slrh/pools_built" !pools_built;
    Agrid_obs.Sink.add obs "slrh/candidates_scored" !candidates_scored;
    Agrid_obs.Sink.add obs "slrh/plans_attempted" !plans_attempted;
    Agrid_obs.Sink.add obs "slrh/assignments" !assignments;
    Agrid_obs.Sink.max_gauge obs "slrh/final_clock" (float_of_int !now);
    (match soa with
    | None -> ()
    | Some ({ arena = a; _ } as s) ->
        (* arena sizing telemetry: capacity/regrowth are whole-run facts,
           emitted once here rather than inside the sweep *)
        Agrid_obs.Sink.max_gauge obs "slrh/pool_capacity"
          (float_of_int (Pool.Flat.capacity a));
        Agrid_obs.Sink.add obs "slrh/pool_regrown" (Pool.Flat.regrown a);
        Agrid_obs.Sink.add obs "slrh/plans_bounded" s.bounded;
        Agrid_obs.Sink.add obs "slrh/steps_jumped" !steps_jumped)
  end;
  {
    schedule = sched;
    completed = Schedule.all_mapped sched;
    final_clock = !now;
    stats =
      {
        clock_steps = !clock_steps;
        pools_built = !pools_built;
        candidates_scored = !candidates_scored;
        plans_attempted = !plans_attempted;
        assignments = !assignments;
      };
    wall_seconds;
  }

let run params workload = continue_run params (Schedule.create workload)

let pp_stats ppf s =
  Fmt.pf ppf "steps=%d pools=%d scored=%d plans=%d assigned=%d" s.clock_steps
    s.pools_built s.candidates_scored s.plans_attempted s.assignments

let pp_outcome ppf o =
  Fmt.pf ppf "%a completed=%b clock=%d wall=%.3fs [%a]" Schedule.pp o.schedule
    o.completed o.final_clock o.wall_seconds pp_stats o.stats
