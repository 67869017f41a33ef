(** Time-constraint calibration replicating the paper's procedure: tau is
    derived from greedy-MCT makespans on Case A (Section III). *)

open Agrid_workload

val tau_cycles : ?slack:float -> ?n_probes:int -> Spec.t -> int
(** Median greedy makespan over [n_probes] Case A scenarios, times [slack]
    (default 1.0), in cycles. *)

val calibrated_spec : ?slack:float -> ?n_probes:int -> Spec.t -> Spec.t
