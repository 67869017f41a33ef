(** Deterministic application-arrival processes over the repo's splitmix
    streams: each stream draws from its own {!Agrid_prng.Splitmix64}
    substream derived from [(seed, stream index)], so arrival timelines
    are reproducible per seed, independent of stream count or evaluation
    order (the multi-app analogue of the campaign's replicate streams). *)

type process =
  | Poisson of float
      (** arrival rate in applications per cycle; inter-arrival gaps are
          exponential draws ({!Agrid_prng.Dist.exponential}) *)
  | Trace of int list
      (** explicit arrival cycles (sorted on generation; duplicates
          allowed — simultaneous arrivals) *)

val validate_process : horizon:int -> process -> (unit, string) result
(** Rates must be finite and positive with a bounded expected arrival
    count ([rate *. horizon <= 10_000] — a runaway-spec guard, not a
    tuning knob); trace times nonnegative. *)

type arrival = {
  at : int;  (** global cycles *)
  stream : int;  (** index of the originating process *)
  seq : int;  (** per-stream arrival ordinal (0-based) *)
}

val generate : seed:int -> horizon:int -> process list -> arrival list
(** All arrivals in [\[0, horizon\]] cycles, merged across streams and
    sorted by [(at, stream, seq)] — a total order, so the merged
    timeline is deterministic per seed. Trace entries beyond the horizon
    are dropped (they would arrive after the run stops admitting). *)
