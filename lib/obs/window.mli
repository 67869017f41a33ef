(** Rolling-window aggregator: a bounded ring of per-interval counter and
    histogram deltas, so long-lived daemons can report "last 60 s" rates
    and latency quantiles instead of lifetime sums.

    Each slot covers one absolute interval of [slot_s] seconds; writing
    into a stale slot resets it first, so idle gaps age out without any
    background thread. Reads merge the live slots on demand. Memory is
    bounded by [slots * names-per-slot]; nothing is allocated per
    observation after a name's first use in an interval.

    Not thread-safe — record under whatever lock guards the owner's other
    counters. All timestamps come in explicitly ([~now], seconds), which
    keeps tests deterministic. *)

type t

val create : ?slots:int -> ?slot_s:float -> unit -> t
(** Default geometry 12 x 5 s = one minute of history.
    @raise Invalid_argument when [slots < 1] or [slot_s <= 0]. *)

val window_s : t -> float
(** Nominal span, [slots * slot_s]. *)

val incr : t -> now:float -> string -> unit
val add : t -> now:float -> string -> int -> unit

val observe : t -> now:float -> string -> bounds:float array -> float -> unit
(** Record one histogram observation. As with {!Registry.observe}, every
    observer of one name must pass the same bounds. *)

val total : t -> now:float -> string -> int
(** Counter sum over the live window. *)

val rate : t -> now:float -> string -> float
(** Counter events per second over the covered portion of the window
    (early in life the divisor is the time actually observed, not the
    full ring). 0 when nothing is live. *)

val merged_hist : t -> now:float -> string -> Hist.t option
(** Bucket-wise merge of the live slots' histograms under a name; [None]
    when no live slot observed it. *)

val quantile : t -> now:float -> string -> float -> float
(** Quantile of {!merged_hist}; NaN when nothing is live. *)

val count : t -> now:float -> string -> int
(** Observation count of {!merged_hist} over the live window. *)

val covered_s : t -> now:float -> float
(** Seconds of window actually covered by live slots (<= {!window_s}). *)

val merge_into : into:t -> t -> unit
(** Slot-by-slot merge keyed on absolute interval stamps — windows merge
    like histograms, so per-worker windows can aggregate after a join.
    @raise Invalid_argument when the slot geometries differ. *)
