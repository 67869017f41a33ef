(* Monotonic nanosecond clock (see clock_stubs.c). The span profiler
   times sections that can run in the tens of nanoseconds; gettimeofday's
   microsecond resolution quantizes those to 0, flattening every
   percentile below 1 us into interpolation noise. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "agrid_clock_monotonic_ns_bytecode" "agrid_clock_monotonic_ns_native"
[@@noalloc]

let elapsed_seconds ~since =
  Int64.to_float (Int64.sub (monotonic_ns ()) since) *. 1e-9

let now_s () = Int64.to_float (monotonic_ns ()) *. 1e-9
