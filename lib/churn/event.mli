(** The churn event grammar: a scripted timeline of grid transitions the
    engine interleaves with SLRH receding-horizon phases. Machines are
    addressed by their original (full-grid) index throughout — the engine
    never renumbers.

    A permanent machine loss is a lone [Leave]; an outage is [Leave] +
    [Rejoin]. *)

type kind =
  | Leave of int
      (** the machine disappears: its work (and, by ancestor closure, work
          depending on it) is discarded; energy already burned on surviving
          machines is sunk *)
  | Rejoin of int
      (** the machine reappears, empty-handed, billed for the energy it
          burned on pre-departure work *)
  | Battery_shock of int * float
      (** the machine instantly loses this fraction of its {e remaining}
          battery (fraction in [\[0, 1\]]) *)
  | Bandwidth_degrade of int * float
      (** the machine's link bandwidth is multiplied by this positive
          factor from now on (committed transfers keep their slots) *)

type t = { at : int  (** cycles *); kind : kind }

val machine : kind -> int
val kind_name : kind -> string

val sort : t list -> t list
(** Stable sort by time: same-instant events keep their given order. *)

val validate : n_machines:int -> t list -> unit
(** Check a (sorted) trace is applicable: nonnegative times, machines in
    range, shock fractions in [\[0,1\]] (NaN is not), degrade factors
    finite and positive, no [Leave] of an absent machine, no [Rejoin] of
    a present one. (All
    machines absent at once — a total blackout — is representable: the
    engine masks machines rather than removing them, and simply makes no
    progress until someone rejoins.) @raise Invalid_argument otherwise. *)

val to_string : t -> string
(** [leave\@AT:M], [rejoin\@AT:M], [shock\@AT:M:FRACTION],
    [degrade\@AT:M:FACTOR]. *)

val parse : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on syntax errors. *)

val parse_trace : string -> t list
(** Comma-separated events, e.g.
    ["leave@120:1,shock@200:0:0.5,rejoin@400:1"]; sorted by time on the
    way out. @raise Invalid_argument on syntax errors. *)

val trace_to_string : t list -> string

val pp : Format.formatter -> t -> unit
