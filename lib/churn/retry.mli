(** Re-execution policy for subtasks discarded by a churn event.

    The paper notes partial-result recovery "may prove too costly"; we
    never recover, but the policy controls {e when} discarded work becomes
    remappable again and {e how often} a subtask may be discarded before it
    is abandoned. *)

type timing =
  | Immediate
      (** discarded subtasks re-enter the candidate pool at the very next
          SLRH phase — survivors absorb the lost work (the
          default) *)
  | Defer_to_rejoin
      (** discarded subtasks are held out of the pool until any machine
          rejoins — wait for capacity instead of cramming the survivors
          (if nothing ever rejoins, held work stays unmapped) *)

type policy = {
  timing : timing;
  budget : int option;
      (** max times one subtask may be discarded and requeued; exceeding it
          abandons the subtask permanently. [None] = unlimited. *)
}

val default : policy
(** Immediate remap, unlimited budget — the historical machine-loss
    semantics. *)

val make : ?timing:timing -> ?budget:int -> unit -> policy
(** @raise Invalid_argument on a negative budget. *)

val pp : Format.formatter -> policy -> unit
