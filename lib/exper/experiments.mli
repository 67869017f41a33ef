(** One function per paper table/figure (the per-experiment index lives in
    DESIGN.md section 4). Tables 1-2 are constants, Tables 3-4 derive from
    generated ETCs, Figure 2 is a delta-T sweep, Figures 3-7 project the
    shared {!Evaluation} sweep. *)

open Agrid_report

val table1 : unit -> Table.t
val table2 : unit -> Table.t
val table3 : Config.t -> Table.t
val table4 : Config.t -> Table.t

val figure2 : Config.t -> Series.t
(** SLRH-1's T100 and wall time over [Sweep.figure2_delta_t_values] at
    weights (0.3, 0.3), ETC 0, DAGs 0 and 1, Case A. *)

val figure3 : Evaluation.t -> Table.t
val figure4 : Evaluation.t -> Series.t
val figure5 : Evaluation.t -> Series.t
val figure6 : Evaluation.t -> Series.t
val figure7 : Evaluation.t -> Series.t

val extension_loss_sweep : Config.t -> Series.t
(** Extension study: final T100 vs the loss instant (0, 0.1, 0.25, 0.5
    and 0.75 of tau) of a slow/fast machine out of Case A at weights
    (0.4, 0.3) (the dynamic transition Cases B/C bracket). *)

val slrh2_failure_rate : Config.t -> int * int
(** [(feasible, total)] over a coarse weight grid x Case A scenarios — the
    paper's reason for dropping SLRH-2. *)
