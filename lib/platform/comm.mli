(** Point-to-point communication model: the time to move one bit from
    machine [i] to [j] is [CMT(i,j) = 1 / min(BW(i), BW(j))]; same-machine
    transfers are free and instantaneous (paper Section III). *)

val transfer_cycles : Grid.t -> src:int -> dst:int -> bits:float -> int
(** [bits] times CMT, the seconds per bit [1 / min(BW(src), BW(dst))],
    rounded up to whole cycles; 0 when [src = dst]. *)

val transfer_energy : Grid.t -> src:int -> dst:int -> bits:float -> float
(** Billed to the sender over the integer-cycle duration; receiving is
    free (assumption (a)). *)

val worst_case_energy : Grid.t -> src:int -> bits:float -> float
(** Cost if the recipient sat on the grid's lowest-bandwidth link — the
    feasibility check's conservative bound (paper Section IV). *)

(** {1 Per-run rate tables}

    The scalar functions above box every float they take or return.
    A {!table} reads the grid once, and its kernels take float operands
    from array slots and write float results into array slots, so a hot
    loop prices transfers with no float boxed. Each kernel evaluates the
    same operations in the same order as its scalar counterpart, so the
    results are bit-identical. One table serves one run: it holds
    scratch slots and is not safe to share between domains. *)

type table

val table : Grid.t -> table
(** CMT per machine pair, the grid's minimum bandwidth and the per-machine
    transmit and compute rates, read once. *)

val staging : table -> float array
(** A one-slot array the caller may use to hand the kernels an operand
    (an edge's bits) or to receive a result. *)

val transfer_cycles_at : table -> src:int -> dst:int -> float array -> int -> int
(** [transfer_cycles_at tb ~src ~dst bits i] is
    [transfer_cycles grid ~src ~dst ~bits:bits.(i)], with its argument
    checks. *)

val worst_case_cycles_at : table -> float array -> int -> int
(** Cycles [bits.(i)] take on the grid's lowest-bandwidth link, the
    duration {!worst_case_energy} bills. *)

val transfer_energy_into : table -> src:int -> cycles:int -> float array -> int -> unit
(** Stores in [a.(i)] the energy [src] spends transmitting for [cycles]:
    [transfer_energy] of a transfer that lasts [cycles], and
    [worst_case_energy] of one that lasts {!worst_case_cycles_at}. *)

val exec_energy_into : table -> machine:int -> cycles:int -> float array -> int -> unit
(** Stores in [a.(i)] the energy [machine] spends computing for [cycles]:
    [Machine.compute_energy] of [Units.seconds_of_cycles cycles]. *)
