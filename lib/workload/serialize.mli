(** Scenario persistence: a versioned text format pinning a scenario's full
    artefacts (Case-A-width ETC matrix, DAG, per-edge data sizes, spec
    constants) for cross-version reproducibility. Roundtrips are bit-exact
    (floats printed with [%.17g]). *)

exception Parse_error of { line : int; message : string }

val save_file :
  string ->
  Spec.t ->
  etc_index:int ->
  dag_index:int ->
  case:Agrid_platform.Grid.case ->
  unit

val to_string :
  Spec.t -> etc_index:int -> dag_index:int -> case:Agrid_platform.Grid.case -> string

val load_string : string -> Workload.t
(** @raise Parse_error on malformed input, including a float field that
    parses to NaN or an infinity. *)

val load_file : string -> Workload.t

(** {2 Scenario references}

    The workload half of the scenario service's [agrid-job/1] envelope: a
    scenario named either by generator coordinates (what the CLI's
    [--seed]/[--scale]/[--etc]/[--dag]/[--case] take) or by a pinned
    [agrid-scenario v1] text embedded as one JSON string. *)

type scenario_ref =
  | Generated of {
      seed : int;
      scale : float;  (** fraction of the paper's |T| = 1024; >= 1 = full *)
      etc_index : int;
      dag_index : int;
      case : Agrid_platform.Grid.case;
    }
  | Pinned of string  (** an [agrid-scenario v1] document (see {!to_string}) *)

val spec_for : seed:int -> scale:float -> Spec.t
(** The spec the CLI builds for [--seed]/[--scale]: [Spec.paper_scale]
    at [scale >= 1.], [Spec.scaled] below.
    @raise Invalid_argument when [scale] is outside (0, 1] ∪ [1, ∞). *)

val realize : scenario_ref -> Workload.t
(** Instantiate the referenced workload.
    @raise Parse_error on a malformed [Pinned] text.
    @raise Invalid_argument on out-of-range [Generated] coordinates. *)

val scenario_ref_to_json : scenario_ref -> Agrid_obs.Json.t

val scenario_ref_of_json :
  Agrid_obs.Json.t -> (scenario_ref, string) result
(** Total: every shape error comes back as [Error] with a one-line
    diagnostic (never an exception). [scenario_ref_of_json ∘
    scenario_ref_to_json] is the identity (pinned by the round-trip
    property suite). *)
