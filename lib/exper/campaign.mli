(** Monte Carlo churn campaign: survivability of the SLRH resource manager
    under random machine churn (extension; the paper defers dynamic
    reconfiguration, Section III).

    Each churn intensity level runs [replicates] independent seeded traces
    — per-machine alternating renewal processes with exponential up-times
    ({!Agrid_churn.Sample.exponential_trace}) — through the churn engine
    and reports degradation curves: completion probability, deadline-miss
    rate, mean T100, mean sunk energy. Replicates fan out over
    {!Agrid_par.Parallel}; every draw derives from [seed], so a campaign
    is exactly reproducible. *)

type level = {
  intensity : float;  (** expected leaves per machine over the deadline *)
  n_replicates : int;
  completion_rate : float;  (** fraction of replicates mapping all subtasks *)
  deadline_miss_rate : float;
      (** fraction incomplete or finishing past tau *)
  mean_t100 : float;  (** mean primary versions mapped *)
  mean_sunk : float;  (** mean sunk energy (discarded work + debits) *)
  mean_events : float;  (** mean churn events per trace *)
  mean_discards : float;  (** mean placements discarded per run *)
}

val run :
  ?obs:Agrid_obs.Sink.t ->
  ?weights:Agrid_core.Objective.weights ->
  ?policy:Agrid_churn.Retry.policy ->
  ?adapt:Agrid_core.Adapt.spec ->
  ?intensities:float list ->
  ?replicates:int ->
  ?shards:int ->
  seed:int ->
  Config.t ->
  level list
(** Run the campaign on the Case A workload of [config]. The mean outage
    length is 0.15 tau; intensity [x] gives mean up-time [tau / x]
    (intensity 0 is the static baseline: no events are sampled).
    [replicates] defaults to 32.

    [?adapt] runs every replicate under online dual ascent
    ({!Agrid_core.Adapt}) seeded from [weights], with the spec's implied
    feasibility mode; each replicate gets a fresh controller, so
    aggregates remain shard-count-invariant. The spec must already be
    validated ({!Agrid_core.Adapt.validate_spec}).

    [?shards] splits each level's replicates into that many contiguous
    blocks run on worker domains via {!Agrid_par.Parallel.run_workers}
    (default: one shard per available domain — [Config.domains] if set —
    capped at the replicate count). Replicate PRNG streams are derived
    from (seed, level, rep) alone and level statistics fold the results in
    replicate order, so the reported aggregates are identical for every
    shard count (pinned by the differential suite).

    [?obs] (default: inert): each shard records scheduler and engine
    telemetry into a private sink on its worker domain; the calling domain
    folds them into [obs] after each level joins, and times levels under
    the ["campaign/level"] span (replicate wall time lands under
    ["campaign/replicate"]; the shard count under the ["campaign/shards"]
    gauge). Counter totals are shard-count-invariant; snapshot retention
    is not (shards share a bounded ring).
    @raise Invalid_argument on a nonpositive replicate count, negative
    intensity, or [shards < 1]. *)

val table : level list -> Agrid_report.Table.t

(** {2 Multi-tenant traffic replicates}

    The same replicate discipline applied to the continuous-traffic
    engine ({!Agrid_tenant.Traffic}): each replicate reruns the spec
    under a seed splitmix-derived from [(spec.seed, rep)], so a traffic
    campaign is a pure function of the spec — byte-identical [?obs]
    exports included (the traffic engine records nothing
    wall-clock-dependent). *)

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
  ts_tenants : tenant_level list;  (** spec tenant order *)
  ts_replicates : int;
  ts_mean_fairness_gap : float;
  ts_max_fairness_gap : float;
}

val run_traffic :
  ?obs:Agrid_obs.Sink.t ->
  ?replicates:int ->
  ?shards:int ->
  Agrid_tenant.Traffic.spec ->
  traffic_summary
(** [replicates] defaults to 8; [shards] shards them over worker domains
    exactly like {!run} (contiguous blocks, per-shard sinks folded into
    [obs] after the join; aggregates are shard-count-invariant).
    @raise Invalid_argument on a nonpositive replicate count,
    [shards < 1], or a spec {!Agrid_tenant.Traffic.validate} rejects. *)

val traffic_table : traffic_summary -> Agrid_report.Table.t
