(** Monotonic nanosecond clock for span timing. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "agrid_clock_monotonic_ns_bytecode" "agrid_clock_monotonic_ns_native"
[@@noalloc]
(** CLOCK_MONOTONIC in nanoseconds: ~tens-of-ns resolution, immune to
    wall-clock adjustments, no OCaml heap allocation on the native
    path. *)

val elapsed_seconds : since:int64 -> float
(** Seconds elapsed since a [monotonic_ns] reading. *)

val now_s : unit -> float
(** [monotonic_ns] in seconds: the clock behind every service timestamp
    (uptime, queue wait, latency, timeouts, trace event times). Only
    differences between two readings mean anything. *)
