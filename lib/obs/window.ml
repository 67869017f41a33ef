(* Rolling-window aggregator: a ring of per-interval slots, each holding
   counter deltas and histogram deltas, so a long-lived daemon can answer
   "what happened in the last 60 s" instead of replaying lifetime sums.
   Slots are keyed by the absolute interval index [floor(now / slot_s)]
   — writing into a slot whose stamp is stale resets it first, so idle
   gaps age out without a background sweeper thread. Reads merge the
   still-live slots on demand (histograms merge bucket-wise like {!Hist},
   which is also what makes two windows mergeable slot-by-slot).

   Like a {!Sink}, a window is not thread-safe: the serve/fleet daemons
   record into theirs under the same lock that guards their counters. *)

type slot = {
  mutable stamp : int;  (* absolute interval index; -1 = never written *)
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

type t = { slot_s : float; slots : slot array }

let create ?(slots = 12) ?(slot_s = 5.) () =
  if slots < 1 then invalid_arg "Window.create: slots must be >= 1";
  if not (slot_s > 0.) then invalid_arg "Window.create: slot_s must be positive";
  {
    slot_s;
    slots =
      Array.init slots (fun _ ->
          { stamp = -1; counters = Hashtbl.create 8; hists = Hashtbl.create 8 });
  }

let n_slots t = Array.length t.slots
let window_s t = t.slot_s *. float_of_int (n_slots t)
let epoch t now = int_of_float (Float.floor (now /. t.slot_s))

let clear_slot s =
  Hashtbl.reset s.counters;
  Hashtbl.reset s.hists

(* The slot covering [now], reset first if its last write was a different
   interval (the ring reuses slots modulo its length). *)
let slot_for t ~now =
  let k = epoch t now in
  let s = t.slots.(k mod n_slots t) in
  if s.stamp <> k then begin
    clear_slot s;
    s.stamp <- k
  end;
  s

let add t ~now name by =
  let s = slot_for t ~now in
  match Hashtbl.find_opt s.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add s.counters name (ref by)

let incr t ~now name = add t ~now name 1

let observe t ~now name ~bounds x =
  let s = slot_for t ~now in
  let h =
    match Hashtbl.find_opt s.hists name with
    | Some h -> h
    | None ->
        let h = Hist.make ~bounds in
        Hashtbl.add s.hists name h;
        h
  in
  Hist.observe h x

(* A slot is live at [now] when its interval is one of the last [n]. *)
let live t ~now s = s.stamp >= 0 && s.stamp > epoch t now - n_slots t

let fold_live t ~now f acc =
  Array.fold_left (fun acc s -> if live t ~now s then f acc s else acc) acc t.slots

let total t ~now name =
  fold_live t ~now
    (fun acc s ->
      match Hashtbl.find_opt s.counters name with
      | Some r -> acc + !r
      | None -> acc)
    0

(* Seconds of window actually covered: from the start of the oldest live
   slot to [now], clamped to the nominal span — so early-life rates are
   computed over the time observed, not the full (mostly empty) ring. *)
let covered_s t ~now =
  let oldest =
    fold_live t ~now
      (fun acc s -> match acc with None -> Some s.stamp | Some o -> Some (min o s.stamp))
      None
  in
  match oldest with
  | None -> 0.
  | Some stamp ->
      Float.min (window_s t) (Float.max t.slot_s (now -. (float_of_int stamp *. t.slot_s)))

let rate t ~now name =
  let c = covered_s t ~now in
  if c <= 0. then 0. else float_of_int (total t ~now name) /. c

(* Bucket-wise merge of the live per-slot histograms under [name]; None
   when no live slot observed it. All observers of one name must use the
   same bounds (the {!Registry.observe} contract). *)
let merged_hist t ~now name =
  fold_live t ~now
    (fun acc s ->
      match Hashtbl.find_opt s.hists name with
      | None -> acc
      | Some h -> (
          match acc with
          | None -> Some (Hist.copy h)
          | Some into ->
              Hist.merge_into ~into h;
              Some into))
    None

let quantile t ~now name q =
  match merged_hist t ~now name with
  | None -> Float.nan
  | Some h -> Hist.quantile h q

let count t ~now name =
  match merged_hist t ~now name with None -> 0 | Some h -> Hist.count h

(* Slot-by-slot merge keyed on absolute stamps: same-interval slots add,
   older src intervals only land where they don't evict something newer.
   Associative and commutative for windows with identical geometry. *)
let merge_into ~into src =
  if into.slot_s <> src.slot_s || n_slots into <> n_slots src then
    invalid_arg "Window.merge_into: slot geometry differs";
  Array.iter
    (fun s ->
      if s.stamp >= 0 then begin
        let d = into.slots.(s.stamp mod n_slots into) in
        if d.stamp < s.stamp then begin
          clear_slot d;
          d.stamp <- s.stamp
        end;
        if d.stamp = s.stamp then begin
          Hashtbl.iter (fun name r ->
            match Hashtbl.find_opt d.counters name with
            | Some dr -> dr := !dr + !r
            | None -> Hashtbl.add d.counters name (ref !r))
            s.counters;
          Hashtbl.iter
            (fun name h ->
              match Hashtbl.find_opt d.hists name with
              | Some dh -> Hist.merge_into ~into:dh h
              | None -> Hashtbl.add d.hists name (Hist.copy h))
            s.hists
        end
      end)
    src.slots
