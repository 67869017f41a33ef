(* Monte Carlo churn campaign. Each (level, replicate) pair owns a
   generator derived from the campaign seed by the same multiplicative
   mixing the workload streams use, so adding levels or replicates never
   perturbs the draws of the others, and the whole campaign is a pure
   function of [seed]. *)

open Agrid_workload
open Agrid_prng

type level = {
  intensity : float;
  n_replicates : int;
  completion_rate : float;
  deadline_miss_rate : float;
  mean_t100 : float;
  mean_sunk : float;
  mean_events : float;
  mean_discards : float;
}

let default_intensities = [ 0.0; 0.5; 1.0; 2.0; 4.0 ]

type replicate_result = {
  r_completed : bool;
  r_deadline_miss : bool;
  r_t100 : int;
  r_sunk : float;
  r_events : int;
  r_discards : int;
}

let rng_for ~seed ~level ~rep =
  Splitmix64.create
    Int64.(
      add
        (mul (of_int seed) 0x9E3779B97F4A7C15L)
        (add (mul (of_int level) 0xBF58476D1CE4E5B9L) (of_int (rep + 1))))

(* Mean outage length as a fraction of tau. *)
let down_fraction = 0.15

(* The sharding both campaigns share. Checks [shards] (the argument
   errors name [fn]) and resolves it, by default to [default ()] capped at
   [replicates] (empty shards would spawn idle domains), and returns the
   count with a runner. The runner calls [f ~sink rep] for every replicate
   as contiguous blocks [lo, hi), one per shard, on worker domains via
   [Parallel.run_workers]; the disjoint blocks keep the result-array
   writes apart. A sink is single-domain, so each shard records into a
   private one, folded into [obs] after the join (merging is associative
   and commutative, so the fold order never matters). Results come back
   in replicate order, so anything folded over them in that order is the
   same for every shard count. *)
let sharded ~fn ~replicates ~default shards =
  let shards =
    match shards with
    | Some s when s < 1 -> invalid_arg (fn ^ ": shards must be >= 1")
    | Some s -> s
    | None -> min replicates (default ())
  in
  let run_blocks ~obs f =
    let shard_sinks =
      Array.init shards (fun _ ->
          if Agrid_obs.Sink.enabled obs then Agrid_obs.Sink.create ~capacity:256 ()
          else Agrid_obs.Sink.noop)
    in
    let results = Array.make replicates None in
    Agrid_par.Parallel.run_workers ~domains:shards ~n:shards (fun s ->
        let sink = shard_sinks.(s) in
        let lo = s * replicates / shards and hi = (s + 1) * replicates / shards in
        for rep = lo to hi - 1 do
          results.(rep) <- Some (f ~sink rep)
        done);
    Array.iter (fun s -> Agrid_obs.Sink.merge_into ~into:obs s) shard_sinks;
    Array.map (function Some r -> r | None -> assert false (* every block was run *)) results
  in
  (shards, run_blocks)

let run ?(obs = Agrid_obs.Sink.noop)
    ?(weights = Agrid_core.Objective.make_weights ~alpha:0.4 ~beta:0.3)
    ?(policy = Agrid_churn.Retry.default) ?adapt ?(intensities = default_intensities)
    ?(replicates = 32) ?shards ~seed (config : Config.t) =
  if replicates <= 0 then invalid_arg "Campaign.run: nonpositive replicate count";
  (* Default: one shard per available domain. *)
  let shards, run_blocks =
    sharded ~fn:"Campaign.run" ~replicates shards ~default:(fun () ->
        match config.Config.domains with
        | Some d -> max 1 d
        | None -> Agrid_par.Parallel.default_domains ())
  in
  List.iter
    (fun x -> if x < 0. then invalid_arg "Campaign.run: negative intensity")
    intensities;
  let workload = Workload.build config.Config.spec ~etc_index:0 ~dag_index:0 ~case:Agrid_platform.Grid.A in
  let params =
    {
      (Agrid_core.Slrh.default_params weights) with
      Agrid_core.Slrh.delta_t = config.Config.delta_t;
      horizon = config.Config.horizon;
    }
  in
  let tau = Workload.tau workload in
  let n_machines = Workload.n_machines workload in
  (* Replicate PRNG streams derive from [rng_for ~seed ~level ~rep] alone
     — independent of the shard layout — and the level statistics fold
     over the results in replicate order, so campaign aggregates are
     identical for every shard count (pinned by the differential suite). *)
  let one_replicate ~rsink ~level ~intensity rep =
    let rparams = { params with Agrid_core.Slrh.obs = rsink } in
    (* the dual-ascent controller is mutable per-run state: every
       replicate seeds a fresh one from the same spec, so results stay
       independent of the shard layout *)
    let rparams =
      match adapt with
      | None -> rparams
      | Some spec ->
          {
            rparams with
            Agrid_core.Slrh.adapt = Some (Agrid_core.Adapt.create spec weights);
            feas_mode = Agrid_core.Adapt.feas_mode spec;
          }
    in
    let trace =
      if intensity = 0. then []
      else
        let rng = rng_for ~seed ~level ~rep in
        Agrid_churn.Sample.exponential_trace rng ~n_machines ~horizon:tau
          ~up_mean:(fun _ -> float_of_int tau /. intensity)
          ~down_mean:(fun _ -> down_fraction *. float_of_int tau)
    in
    let o =
      Agrid_obs.Sink.span rsink "campaign/replicate" (fun () ->
          Agrid_core.Dynamic.run_churn ~policy rparams workload trace)
    in
    let sched = o.Agrid_churn.Engine.schedule in
    let completed = o.Agrid_churn.Engine.completed in
    {
      r_completed = completed;
      r_deadline_miss = (not completed) || Agrid_sched.Schedule.aet sched > tau;
      r_t100 = Agrid_sched.Schedule.n_primary sched;
      r_sunk = o.Agrid_churn.Engine.sunk_energy;
      r_events = List.length trace;
      r_discards = o.Agrid_churn.Engine.n_discarded;
    }
  in
  List.mapi
    (fun level intensity ->
      let results =
        Agrid_obs.Sink.span obs "campaign/level" (fun () ->
            run_blocks ~obs (fun ~sink rep -> one_replicate ~rsink:sink ~level ~intensity rep))
      in
      Agrid_obs.Sink.add obs "campaign/replicates" replicates;
      Agrid_obs.Sink.max_gauge obs "campaign/shards" (float_of_int shards);
      let n = float_of_int replicates in
      let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 results in
      let mean f = Array.fold_left (fun acc r -> acc +. f r) 0. results /. n in
      {
        intensity;
        n_replicates = replicates;
        completion_rate = float_of_int (count (fun r -> r.r_completed)) /. n;
        deadline_miss_rate = float_of_int (count (fun r -> r.r_deadline_miss)) /. n;
        mean_t100 = mean (fun r -> float_of_int r.r_t100);
        mean_sunk = mean (fun r -> r.r_sunk);
        mean_events = mean (fun r -> float_of_int r.r_events);
        mean_discards = mean (fun r -> float_of_int r.r_discards);
      })
    intensities

let table levels =
  Agrid_report.Table.make
    ~title:"Monte Carlo churn campaign: SLRH survivability vs churn intensity (Case A)"
    ~columns:
      [
        "leaves/machine";
        "replicates";
        "completion";
        "deadline miss";
        "mean T100";
        "mean sunk (J)";
        "mean events";
        "mean discards";
      ]
    ~rows:
      (List.map
         (fun l ->
           [
             Fmt.str "%.2f" l.intensity;
             string_of_int l.n_replicates;
             Fmt.str "%.3f" l.completion_rate;
             Fmt.str "%.3f" l.deadline_miss_rate;
             Fmt.str "%.1f" l.mean_t100;
             Fmt.str "%.2f" l.mean_sunk;
             Fmt.str "%.1f" l.mean_events;
             Fmt.str "%.1f" l.mean_discards;
           ])
         levels)

(* ---- multi-tenant traffic replicates ---- *)

module Traffic = Agrid_tenant.Traffic

type tenant_level = {
  t_id : string;
  t_priority : string;
  t_replicates : int;
  t_mean_arrivals : float;
  t_mean_admitted : float;
  t_mean_rejected : float;
  t_mean_completed : float;
  t_mean_t100 : float;
  t_mean_tec : float;
  t_mean_steps : float;
}

type traffic_summary = {
  ts_tenants : tenant_level list;
  ts_replicates : int;
  ts_mean_fairness_gap : float;
  ts_max_fairness_gap : float;
}

(* Replicate seeds use the same golden-ratio mixing as [rng_for], so the
   whole traffic campaign is a pure function of the spec seed and adding
   replicates never perturbs existing ones. The mask keeps the derived
   seed in the range [Traffic.app_seed] expects. *)
let traffic_seed ~seed ~rep =
  Int64.to_int
    (Int64.logand
       Int64.(
         add
           (mul (of_int seed) 0x9E3779B97F4A7C15L)
           (mul (of_int (rep + 1)) 0xBF58476D1CE4E5B9L))
       0x3FFFFFFFL)

let run_traffic ?(obs = Agrid_obs.Sink.noop) ?(replicates = 8) ?shards
    (spec : Traffic.spec) =
  if replicates <= 0 then
    invalid_arg "Campaign.run_traffic: nonpositive replicate count";
  let _, run_blocks =
    sharded ~fn:"Campaign.run_traffic" ~replicates shards
      ~default:Agrid_par.Parallel.default_domains
  in
  (match Traffic.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Campaign.run_traffic: " ^ msg));
  (* Each replicate is a pure function of (spec, rep), so the aggregates
     below are identical for every shard count. Nothing
     wall-clock-dependent is recorded, so the [obs] export is
     byte-identical across runs of the same spec. *)
  let outcomes =
    run_blocks ~obs (fun ~sink rep ->
        let rspec = { spec with Traffic.seed = traffic_seed ~seed:spec.Traffic.seed ~rep } in
        Traffic.run ~obs:sink rspec)
  in
  Agrid_obs.Sink.add obs "campaign/traffic_replicates" replicates;
  let n = float_of_int replicates in
  let mean f = Array.fold_left (fun acc o -> acc +. f o) 0. outcomes /. n in
  let tenants =
    List.mapi
      (fun i (ts : Traffic.tenant_stream) ->
        let roll f =
          mean (fun (o : Traffic.outcome) -> f (List.nth o.Traffic.rollups i))
        in
        {
          t_id = ts.Traffic.ts_tenant.Agrid_tenant.Tenant.id;
          t_priority =
            Agrid_tenant.Tenant.priority_to_string
              ts.Traffic.ts_tenant.Agrid_tenant.Tenant.priority;
          t_replicates = replicates;
          t_mean_arrivals = roll (fun r -> float_of_int r.Traffic.r_arrivals);
          t_mean_admitted = roll (fun r -> float_of_int r.Traffic.r_admitted);
          t_mean_rejected = roll (fun r -> float_of_int r.Traffic.r_rejected);
          t_mean_completed = roll (fun r -> float_of_int r.Traffic.r_completed);
          t_mean_t100 = roll (fun r -> float_of_int r.Traffic.r_t100);
          t_mean_tec = roll (fun r -> r.Traffic.r_tec);
          t_mean_steps = roll (fun r -> float_of_int r.Traffic.r_steps);
        })
      spec.Traffic.tenants
  in
  {
    ts_tenants = tenants;
    ts_replicates = replicates;
    ts_mean_fairness_gap = mean (fun o -> o.Traffic.fairness_gap);
    ts_max_fairness_gap =
      Array.fold_left
        (fun acc (o : Traffic.outcome) -> Float.max acc o.Traffic.fairness_gap)
        0. outcomes;
  }

let traffic_table s =
  Agrid_report.Table.make
    ~title:
      (Fmt.str
         "Multi-tenant traffic campaign: per-tenant means over %d replicates \
          (fairness gap mean %.3f max %.3f)"
         s.ts_replicates s.ts_mean_fairness_gap s.ts_max_fairness_gap)
    ~columns:
      [
        "tenant";
        "priority";
        "arrivals";
        "admitted";
        "rejected";
        "completed";
        "T100";
        "TEC (J)";
        "steps";
      ]
    ~rows:
      (List.map
         (fun t ->
           [
             t.t_id;
             t.t_priority;
             Fmt.str "%.1f" t.t_mean_arrivals;
             Fmt.str "%.1f" t.t_mean_admitted;
             Fmt.str "%.1f" t.t_mean_rejected;
             Fmt.str "%.1f" t.t_mean_completed;
             Fmt.str "%.1f" t.t_mean_t100;
             Fmt.str "%.2f" t.t_mean_tec;
             Fmt.str "%.1f" t.t_mean_steps;
           ])
         s.ts_tenants)
