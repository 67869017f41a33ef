(* A timeline is a set of disjoint, half-open busy intervals [start, stop)
   over integer clock cycles, kept sorted in two parallel dynamic arrays.
   It backs each machine's execution slot and each communication channel.

   Sizes stay small (at most one interval per subtask or per transfer), so
   binary search plus an O(n) array insert is both simple and fast; the
   mostly-append usage pattern of clock-driven heuristics makes inserts
   nearly O(1) in practice. *)

type t = {
  mutable starts : int array;
  mutable stops : int array;
  mutable len : int;
}

exception Overlap of { start : int; stop : int; with_start : int; with_stop : int }

let create () = { starts = Array.make 8 0; stops = Array.make 8 0; len = 0 }

let length t = t.len

let interval t i =
  if i < 0 || i >= t.len then invalid_arg "Timeline.interval";
  (t.starts.(i), t.stops.(i))

let to_list t =
  List.init t.len (fun i -> (t.starts.(i), t.stops.(i)))

(* Index of the first interval with stop > time, i.e. the first interval
   that could cover or follow [time]. *)
let first_after t time =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.stops.(mid) <= time then lo := mid + 1 else hi := mid
  done;
  !lo

let is_free_at t time =
  let i = first_after t time in
  i >= t.len || t.starts.(i) > time

(* Is [start, stop) disjoint from every busy interval? Zero-length queries
   are trivially free. *)
let is_free t ~start ~stop =
  if stop < start then invalid_arg "Timeline.is_free: stop < start";
  if stop = start then true
  else begin
    let i = first_after t start in
    i >= t.len || t.starts.(i) >= stop
  end

let grow t =
  let cap = Array.length t.starts in
  if t.len = cap then begin
    let starts = Array.make (2 * cap) 0 and stops = Array.make (2 * cap) 0 in
    Array.blit t.starts 0 starts 0 t.len;
    Array.blit t.stops 0 stops 0 t.len;
    t.starts <- starts;
    t.stops <- stops
  end

let insert t ~start ~stop =
  if stop <= start then invalid_arg "Timeline.insert: empty or negative interval";
  if start < 0 then invalid_arg "Timeline.insert: negative start";
  let i = first_after t start in
  if i < t.len && t.starts.(i) < stop then
    raise (Overlap { start; stop; with_start = t.starts.(i); with_stop = t.stops.(i) });
  grow t;
  (* appending, the common case for a clock-driven heuristic, moves nothing *)
  if i < t.len then begin
    Array.blit t.starts i t.starts (i + 1) (t.len - i);
    Array.blit t.stops i t.stops (i + 1) (t.len - i)
  end;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.len <- t.len + 1

(* Exact removal (the dynamic-grid extension unwinds discarded work). *)
let remove t ~start ~stop =
  let i = first_after t start in
  if i >= t.len || t.starts.(i) <> start || t.stops.(i) <> stop then
    invalid_arg "Timeline.remove: no such interval";
  Array.blit t.starts (i + 1) t.starts i (t.len - i - 1);
  Array.blit t.stops (i + 1) t.stops i (t.len - i - 1);
  t.len <- t.len - 1

(* Earliest start >= not_before such that [start, start + duration) is
   free. Walks the gaps between busy intervals; always succeeds (the
   timeline is unbounded on the right). A zero duration fits anywhere.
   A plain loop, not a local recursive function: this runs several times
   per planned transfer and must not allocate a closure. *)
let first_fit t ~not_before ~duration =
  if duration < 0 then invalid_arg "Timeline.first_fit: negative duration";
  if not_before < 0 then invalid_arg "Timeline.first_fit: negative not_before";
  if duration = 0 then not_before
  else begin
    let candidate = ref not_before in
    let i = ref (first_after t not_before) in
    while !i < t.len && t.starts.(!i) < !candidate + duration do
      if t.stops.(!i) > !candidate then candidate := t.stops.(!i);
      incr i
    done;
    !candidate
  end

(* Earliest start >= not_before with [start, start + duration) free on
   BOTH timelines and clear of the first [n_pending] intervals of
   [pending] — flat [start; stop] pairs, in any order. This is the joint
   slot a transfer needs on the sender's outgoing and the receiver's
   incoming channel, given transfers a plan has placed but not inserted.
   Each lane's fit moves the candidate forward but never past a start
   free on that lane, so cycling until one round leaves it in place
   yields the least such start. *)
let first_fit_joint a b ~pending ~n_pending ~not_before ~duration =
  if duration < 0 then invalid_arg "Timeline.first_fit_joint: negative duration";
  if n_pending < 0 || 2 * n_pending > Array.length pending then
    invalid_arg "Timeline.first_fit_joint: n_pending out of range";
  if duration = 0 then not_before
  else begin
    let candidate = ref not_before in
    let settled = ref false in
    while not !settled do
      let c = first_fit a ~not_before:!candidate ~duration in
      let c = ref (first_fit b ~not_before:c ~duration) in
      for k = 0 to n_pending - 1 do
        (* pending intervals are few and unsorted: push past any overlap,
           then let the next round re-check everything *)
        if pending.(2 * k) < !c + duration && pending.((2 * k) + 1) > !c then
          c := pending.((2 * k) + 1)
      done;
      if !c = !candidate then settled := true else candidate := !c
    done;
    !candidate
  end

(* Last busy stop, or 0 when empty: the "makespan so far" of this lane. *)
let horizon t = if t.len = 0 then 0 else t.stops.(t.len - 1)

let busy_cycles t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + (t.stops.(i) - t.starts.(i))
  done;
  !acc

(* Structural invariant used by the property tests. *)
let well_formed t =
  let ok = ref true in
  for i = 0 to t.len - 1 do
    if t.stops.(i) <= t.starts.(i) then ok := false;
    if i > 0 && t.starts.(i) < t.stops.(i - 1) then ok := false
  done;
  !ok

let pp ppf t =
  Fmt.pf ppf "@[<h>%a@]"
    Fmt.(list ~sep:(any " ") (pair ~sep:(any "-") int int))
    (to_list t)
