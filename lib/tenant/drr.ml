type t = {
  quantum : float;
  weights : float array;
  deficit : float array;
  served_ : float array;
  boundary_served : float array;
      (** copy of [served_] taken at the last cursor wrap — round-boundary
          accounting must be sampled at the wrap itself, because one
          [select] call can cross the boundary and serve into the new
          round before returning *)
  mutable cursor : int;
  mutable visiting : bool;  (** mid-visit at [cursor]: credit already granted *)
  mutable rounds_ : int;
}

let create ~quantum ~weights =
  if Array.length weights = 0 then invalid_arg "Drr.create: no queues";
  if (not (Float.is_finite quantum)) || quantum <= 0. then
    invalid_arg "Drr.create: quantum must be finite and positive";
  Array.iter
    (fun w ->
      if (not (Float.is_finite w)) || w < 1. then
        invalid_arg "Drr.create: weights must be >= 1")
    weights;
  {
    quantum;
    weights = Array.copy weights;
    deficit = Array.make (Array.length weights) 0.;
    served_ = Array.make (Array.length weights) 0.;
    boundary_served = Array.make (Array.length weights) 0.;
    cursor = 0;
    visiting = false;
    rounds_ = 0;
  }

let n t = Array.length t.weights
let quantum t = t.quantum
let weight t i = t.weights.(i)
let served t i = t.served_.(i)
let rounds t = t.rounds_

let advance t =
  t.visiting <- false;
  t.cursor <- (t.cursor + 1) mod n t;
  if t.cursor = 0 then begin
    t.rounds_ <- t.rounds_ + 1;
    Array.blit t.served_ 0 t.boundary_served 0 (n t)
  end

let boundary_served t i = t.boundary_served.(i)
let boundary_share t i = t.boundary_served.(i) /. t.weights.(i)

let select t ~backlogged ~cost =
  if (not (Float.is_finite cost)) || cost <= 0. then
    invalid_arg "Drr.select: cost must be finite and positive";
  if cost > t.quantum then invalid_arg "Drr.select: cost exceeds quantum";
  (* A full pass meeting only empty queues proves nothing is backlogged.
     Each pass over a backlogged queue serves it (weights >= 1 make one
     credit cover any admissible cost), so the scan terminates. *)
  let misses = ref 0 in
  let result = ref None in
  while Option.is_none !result && !misses < n t do
    let i = t.cursor in
    if backlogged i then begin
      if not t.visiting then begin
        t.deficit.(i) <- t.deficit.(i) +. (t.quantum *. t.weights.(i));
        t.visiting <- true
      end;
      if t.deficit.(i) >= cost then begin
        t.deficit.(i) <- t.deficit.(i) -. cost;
        t.served_.(i) <- t.served_.(i) +. cost;
        result := Some i
      end
      else begin
        (* backlogged but out of credit this visit: keep the residual *)
        misses := 0;
        advance t
      end
    end
    else begin
      t.deficit.(i) <- 0.;
      incr misses;
      advance t
    end
  done;
  !result

let weighted_gap t ~over =
  let lo = ref infinity and hi = ref neg_infinity and count = ref 0 in
  for i = 0 to n t - 1 do
    if over i then begin
      incr count;
      let s = boundary_share t i in
      if s < !lo then lo := s;
      if s > !hi then hi := s
    end
  done;
  if !count < 2 then 0. else !hi -. !lo
