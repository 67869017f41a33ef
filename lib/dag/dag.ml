(* Immutable DAG of subtask dependencies in compressed sparse rows: task
   i's child edges are the ids [out_start.(i) .. out_start.(i+1) - 1] and
   its parent edges are [in_edge.(in_start.(i) .. in_start.(i+1) - 1)].
   Edge ids follow the lexicographic (src, dst) order. *)

type t = {
  n : int;
  src : int array; (* per edge id *)
  dst : int array; (* per edge id *)
  out_start : int array; (* n + 1 offsets into the edge ids *)
  in_start : int array; (* n + 1 offsets into [in_edge] *)
  in_edge : int array; (* edge ids by dst, by src within a dst *)
}

exception Cycle of int list
(** Raised by {!of_edges} with (part of) the offending cycle. *)

let n_tasks t = t.n
let n_edges t = Array.length t.src
let src t e = t.src.(e)
let dst t e = t.dst.(e)
let edge t e = (t.src.(e), t.dst.(e))
let in_degree t i = t.in_start.(i + 1) - t.in_start.(i)
let out_degree t i = t.out_start.(i + 1) - t.out_start.(i)

(* Position of row [i]'s [k]-th entry under the offsets [start], or -1
   when [k] is outside the row, so that the array read which follows
   raises. Inlined, each accessor below is a frameless leaf: one short
   call from another module. *)
let[@inline] slot start i k =
  let j = start.(i) + k in
  if k < 0 || j >= start.(i + 1) then -1 else j

let parent_edge t i k = t.in_edge.(slot t.in_start i k)
let parent t i k = t.src.(t.in_edge.(slot t.in_start i k))
let child t i k = t.dst.(slot t.out_start i k)

let child_edge t i k =
  let e = slot t.out_start i k in
  if e < 0 then invalid_arg "index out of bounds" else e

let iter_edges f t =
  for e = 0 to n_edges t - 1 do
    f e ~src:t.src.(e) ~dst:t.dst.(e)
  done

(* Kahn's algorithm; raises [Cycle] listing the nodes left with nonzero
   in-degree when edges are cyclic. [order] doubles as the FIFO queue:
   tasks are appended at [tail] and popped from [head]. *)
let topological_order t =
  let n = t.n in
  let indeg = Array.init n (in_degree t) in
  let order = Array.make n 0 in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    for e = t.out_start.(i) to t.out_start.(i + 1) - 1 do
      let c = t.dst.(e) in
      indeg.(c) <- indeg.(c) - 1;
      if indeg.(c) = 0 then begin
        order.(!tail) <- c;
        incr tail
      end
    done
  done;
  if !tail < n then begin
    let remaining = ref [] in
    for i = n - 1 downto 0 do
      if indeg.(i) > 0 then remaining := i :: !remaining
    done;
    raise (Cycle !remaining)
  end;
  order

(* Counting-sort offsets: [start.(v)] is the number of records [r] in
   [idx] with [key.(r) < v], keys in [0, n). *)
let offsets ~n key idx =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun r -> start.(key.(r) + 1) <- start.(key.(r) + 1) + 1) idx;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  start

(* Stable counting sort of the record indices [idx] by [key.(idx.(k))],
   keys in [0, n). Also returns the bucket offsets: bucket [v] is
   [out.(start.(v) .. start.(v+1) - 1)]. *)
let bucket_by ~n key idx =
  let start = offsets ~n key idx in
  let out = Array.make (Array.length idx) 0 in
  Array.iter
    (fun r ->
      let k = key.(r) in
      out.(start.(k)) <- r;
      start.(k) <- start.(k) + 1)
    idx;
  (* the fill advanced each offset to the next bucket's: shift back *)
  Array.blit start 0 start 1 n;
  start.(0) <- 0;
  (out, start)

let sorted_unique src dst =
  let ok = ref true and k = ref 1 in
  while !ok && !k < Array.length src do
    let ps = src.(!k - 1) and s = src.(!k) in
    ok := ps < s || (ps = s && dst.(!k - 1) < dst.(!k));
    incr k
  done;
  !ok

(* Canonical record order: lexicographic (src, dst), one record per
   distinct edge, the last of a run of duplicates winning. Two stable
   bucket passes over the records [ids] (by dst, then by src) sort them
   in O(E + n). *)
let canonical_records ~n src dst ids =
  let m = Array.length ids in
  let by_src = fst (bucket_by ~n src (fst (bucket_by ~n dst ids))) in
  let keep = ref 0 in
  for k = 0 to m - 1 do
    let r = by_src.(k) in
    let dup_follows =
      k + 1 < m
      &&
      let r' = by_src.(k + 1) in
      src.(r') = src.(r) && dst.(r') = dst.(r)
    in
    if not dup_follows then begin
      by_src.(!keep) <- r;
      incr keep
    end
  done;
  Array.sub by_src 0 !keep

(* Records already in canonical order keep their positions, and their
   endpoint arrays become the DAG's own; otherwise the edges are copied
   out in canonical order. The in-edge grouping is one more stable pass:
   bucketing the edge ids, already in src order, by dst. *)
let of_edge_arrays ~n src dst =
  if n < 0 then invalid_arg "Dag.of_edges: negative task count";
  if Array.length src <> Array.length dst then
    invalid_arg "Dag.of_edge_arrays: endpoint arrays differ in length";
  for k = 0 to Array.length src - 1 do
    let s = src.(k) and d = dst.(k) in
    if s < 0 || s >= n || d < 0 || d >= n then
      invalid_arg "Dag.of_edges: edge endpoint out of range";
    if s = d then invalid_arg "Dag.of_edges: self edge"
  done;
  let ids = Array.init (Array.length src) Fun.id in
  let records, src, dst =
    if sorted_unique src dst then (ids, src, dst)
    else
      let r = canonical_records ~n src dst ids in
      (r, Array.map (Array.get src) r, Array.map (Array.get dst) r)
  in
  let m = Array.length records in
  let ids = if m = Array.length ids then ids else Array.sub ids 0 m in
  let out_start = offsets ~n src ids in
  let in_edge, in_start = bucket_by ~n dst ids in
  let t = { n; src; dst; out_start; in_start; in_edge } in
  ignore (topological_order t) (* validates acyclicity, raises Cycle *);
  (t, records)

let of_edges ~n edge_list =
  let src = Array.of_list (List.map fst edge_list) in
  let dst = Array.of_list (List.map snd edge_list) in
  fst (of_edge_arrays ~n src dst)

let roots t = List.filter (fun i -> in_degree t i = 0) (List.init t.n Fun.id)
let leaves t = List.filter (fun i -> out_degree t i = 0) (List.init t.n Fun.id)

(* Longest-path level of each task: roots at 0, every edge increments. *)
let levels t =
  let level = Array.make t.n 0 in
  Array.iter
    (fun i ->
      for j = t.in_start.(i) to t.in_start.(i + 1) - 1 do
        let p = t.src.(t.in_edge.(j)) in
        if level.(p) + 1 > level.(i) then level.(i) <- level.(p) + 1
      done)
    (topological_order t);
  level

let depth t =
  if t.n = 0 then 0 else 1 + Array.fold_left max 0 (levels t)

let pp ppf t =
  Fmt.pf ppf "dag<%d tasks, %d edges, depth %d>" t.n (n_edges t) (depth t)
