(** The multi-application traffic engine (DESIGN.md section 14): a
    continuous stream of applications — one scaled paper workload each —
    arriving per tenant ({!Arrivals}), admitted against tenant quotas
    ({!Agrid_core.Feasibility.admit_quota}) and sharing one serial
    commit loop, with scheduler timesteps granted by deficit round robin
    ({!Drr}) weighted by priority class.

    Global time is scheduling time: every timestep the loop grants to
    some application advances the shared clock by that application's
    [delta_t]. Each application keeps its own virtual clock and [tau]
    deadline; an application that exhausts its deadline finishes
    incomplete. A leave/rejoin availability timeline (global time)
    masks machines at grant boundaries for every live application.

    Single-tenant steady state takes a fast path — one unchunked
    {!Agrid_core.Slrh.continue_run}, bit-identical to
    {!Agrid_core.Slrh.run} on the same workload and params (pinned by
    the differential suite), preserving the SoA zero-allocation
    budget. *)

type tenant_stream = { ts_tenant : Tenant.t; ts_process : Arrivals.process }

type spec = {
  seed : int;
  horizon : int;  (** arrival horizon, global cycles *)
  scale : float;  (** per-application workload scale factor, (0, 1] *)
  case : Agrid_platform.Grid.case;
  chunk : int;  (** scheduler timesteps per DRR grant (the quantum) *)
  events : Agrid_churn.Event.t list;  (** leave/rejoin only, global time *)
  tenants : tenant_stream list;
}

val make_spec : seed:int -> horizon:int -> tenant_stream list -> spec
(** A spec with the defaults the wire format fills in: scale 0.05, Case
    A, chunk 8, no churn events. *)

val validate : spec -> (unit, string) result

(** {2 Wire format}

    Schema ["agrid-traffic/1"]: one JSON object. Parsing is total —
    malformed input yields [Error], never an exception (the fuzz suite
    checks it, and that parsing its printer's text gives the spec back). *)

val schema : string

val spec_of_string : string -> (spec, string) result
(** Parse + validate. *)

(** {2 Running} *)

val app_seed : spec -> stream:int -> seq:int -> int
(** The workload seed of arrival [seq] on tenant stream [stream] —
    splitmix-mixed from the spec seed, so every application is a
    distinct deterministic scenario. *)

val app_workload : spec -> stream:int -> seq:int -> Agrid_workload.Workload.t
(** The exact workload the engine builds for that arrival. *)

type served = {
  s_completed : bool;
  s_t100 : int;
  s_mapped : int;
  s_aet : int;  (** app-virtual cycles *)
  s_tec : float;
  s_final_clock : int;  (** app-virtual cycles *)
  s_reservation : float;  (** energy charged against the tenant quota *)
  s_steps : int;  (** scheduler timesteps granted *)
  s_started : int;  (** global cycles at admission *)
  s_finished : int;  (** global cycles when the app finished *)
}

type verdict =
  | Rejected of Agrid_core.Feasibility.quota_breach
  | Served of served

type app = {
  a_tenant : string;
  a_stream : int;
  a_seq : int;
  a_arrived : int;  (** global cycles *)
  a_verdict : verdict;
}

type rollup = {
  r_id : string;
  r_priority : Tenant.priority;
  r_arrivals : int;
  r_admitted : int;
  r_rejected : int;
  r_completed : int;
  r_t100 : int;
  r_aet : int;
  r_tec : float;
  r_reserved : float;  (** cumulative energy reservation (never exceeds the quota) *)
  r_steps : int;
}

type outcome = {
  apps : app list;  (** arrival order *)
  rollups : rollup list;  (** spec tenant order *)
  fairness_gap : float;
      (** max weighted served-steps gap observed at DRR round boundaries
          across tenants continuously backlogged over the round *)
  rounds : int;
  total_steps : int;
  final_time : int;  (** global cycles consumed *)
}

val run :
  ?obs:Agrid_obs.Sink.t ->
  ?params_for:(tenant:Tenant.t -> seq:int -> Agrid_core.Slrh.params) ->
  spec ->
  outcome
(** Run the traffic to completion. [?obs] (default inert) receives the
    per-tenant rollups — counters [tenant/<id>/{arrivals,admitted,
    rejected,completed,t100,aet,steps}], gauges [tenant/<id>/{tec,
    reserved}], plus [tenant/{apps,steps,rounds}] and the
    [tenant/fairness_gap] max-gauge. Nothing wall-clock-dependent is
    recorded, so the export is byte-identical across runs of the same
    spec. [?params_for] supplies per-application scheduler params
    (default: paper weights, default SLRH params, inert scheduler sink);
    the fairness and determinism guarantees assume it is pure.
    @raise Invalid_argument on a spec {!validate} rejects. *)

val rollup_table : outcome -> Agrid_report.Table.t
(** The per-tenant rollup as a printable table. *)
