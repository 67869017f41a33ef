(* Dynamic grid events — the ad hoc scenario the paper motivates but defers
   ("assets connected to the grid can — and frequently do — appear and
   disappear at unanticipated times", Section I; dynamic reconfiguration
   "was not permitted during this initial work", Section III).

   The transitions live in the churn engine (Agrid_churn.Engine), which
   masks absent machines rather than renumbering the grid: a permanent
   loss is the one-event trace [Leave@at], a temporary outage
   [Leave@from_; Rejoin@until_].

   Loss semantics (conservative, no partial-result recovery — the paper
   notes recovery "may prove too costly"): work survives iff it finished
   strictly before the loss instant, ran on a surviving machine, AND all of
   its ancestors survive; everything else is rescheduled from the loss
   instant; energy already burned on surviving machines by discarded work
   is charged as sunk cost — batteries do not refill. All of this lives in
   the engine; see lib/churn/engine.ml. *)

module Retry = Agrid_churn.Retry
module Engine = Agrid_churn.Engine

(* The SLRH receding-horizon loop as a churn-engine phase runner. A phase
   starting after clock 0 begins right after churn events fired, so the
   dual-ascent controller (when attached) re-prices the constraints
   against the post-event grid before the phase's first sweep. *)
let slrh_runner params ~start_clock ~until ~mask ~eligible sched =
  (match params.Slrh.adapt with
  | Some a when start_clock > 0 ->
      Adapt.on_churn a ~obs:params.Slrh.obs ~clock:start_clock sched
  | Some _ | None -> ());
  let o = Slrh.continue_run ?until ~start_clock ~mask ~eligible params sched in
  (o, o.Slrh.final_clock)

let run_churn ?(policy = Retry.default) params workload events =
  (* the engine and the per-phase SLRH loop report into the same sink *)
  Engine.run ~obs:params.Slrh.obs ~policy ~runner:(slrh_runner params) workload
    events
