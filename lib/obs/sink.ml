(* The telemetry sink every instrumented call site reports into. Two
   states: [Noop] — the default everywhere — is provably inert (every
   recording function pattern-matches to () before touching its
   arguments), so uninstrumented behaviour and performance are exactly the
   seed's; [Active] carries a metric registry, a span table and a
   snapshot ring.

   Concurrency contract: a sink is single-domain. Parallel code gives each
   worker its own sink (or the no-op) and merges into the parent with
   [merge_into] after the join — merging is associative and commutative,
   so the fold order never matters. *)

type active = {
  registry : Registry.t;
  spans : Span.t;
  snapshots : Snapshot.t Snapshot.Ring.t;
  stride : int;  (* sample every [stride]-th tick *)
  mutable ticks : int;
  ledger : Ledger.t option;  (* decision ledger, opt-in (it is not cheap) *)
}

type t = Noop | Active of active

let noop = Noop

let create ?(stride = 1) ?(capacity = 4096) ?(ledger = false) () =
  if stride <= 0 then invalid_arg "Sink.create: stride must be positive";
  Active
    {
      registry = Registry.create ();
      spans = Span.create ();
      snapshots = Snapshot.Ring.create ~capacity;
      stride;
      ticks = 0;
      ledger = (if ledger then Some (Ledger.create ()) else None);
    }

let enabled = function Noop -> false | Active _ -> true

(* Call sites guard every ledger record on this returning [Some], so the
   no-op sink (and an active sink without a ledger) never pays for — or
   changes behaviour through — decision recording. *)
let ledger = function Noop -> None | Active a -> a.ledger

let incr t name = match t with Noop -> () | Active a -> Registry.incr a.registry name

let add t name by =
  match t with Noop -> () | Active a -> Registry.add a.registry name by

let set_gauge t name v =
  match t with Noop -> () | Active a -> Registry.set_gauge a.registry name v

let max_gauge t name v =
  match t with Noop -> () | Active a -> Registry.max_gauge a.registry name v

let observe t name ~bounds x =
  match t with Noop -> () | Active a -> Registry.observe a.registry name ~bounds x

let span t name f =
  match t with Noop -> f () | Active a -> Span.time a.spans name f

let record_span t name seconds =
  match t with Noop -> () | Active a -> Span.record a.spans name seconds

(* Stride-gated snapshot: every call is one tick; the record is built (the
   thunk run) only on sampled ticks. Returns whether it sampled, so the
   caller can reset its per-window accumulators. *)
let tick_snapshot t ~make =
  match t with
  | Noop -> false
  | Active a ->
      let due = a.ticks mod a.stride = 0 in
      a.ticks <- a.ticks + 1;
      if due then Snapshot.Ring.push a.snapshots (make ());
      due

let metrics = function Noop -> [] | Active a -> Registry.to_alist a.registry
let span_stats = function Noop -> [] | Active a -> Span.stats a.spans
let snapshots = function Noop -> [] | Active a -> Snapshot.Ring.to_list a.snapshots

let snapshots_dropped = function
  | Noop -> 0
  | Active a -> Snapshot.Ring.dropped a.snapshots

let n_metrics = function Noop -> 0 | Active a -> Registry.cardinal a.registry
let n_spans = function Noop -> 0 | Active a -> Span.cardinal a.spans
let n_snapshots = function Noop -> 0 | Active a -> Snapshot.Ring.length a.snapshots

let merge_into ~into src =
  match (into, src) with
  | _, Noop -> ()
  | Noop, Active _ -> invalid_arg "Sink.merge_into: cannot merge into the no-op sink"
  | Active d, Active s ->
      Registry.merge_into ~into:d.registry s.registry;
      Span.merge_into ~into:d.spans s.spans;
      Snapshot.Ring.iter (Snapshot.Ring.push d.snapshots) s.snapshots;
      (match (d.ledger, s.ledger) with
      | Some dl, Some sl -> Ledger.iter (Ledger.record dl) sl
      | _ -> ());
      d.ticks <- d.ticks + s.ticks
