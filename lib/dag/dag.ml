(* Immutable DAG of subtask dependencies. Tasks are integers [0, n); every
   edge (src, dst) has a stable edge id (its index in [edges]) so that
   per-edge payloads — the paper's global data items g(i,j) — can live in
   plain arrays alongside the structure. *)

type t = {
  n : int;
  edges : (int * int) array; (* lexicographically sorted, no duplicates *)
  parents : (int * int) array array; (* per dst: (src, edge_id) *)
  children : (int * int) array array; (* per src: (dst, edge_id) *)
}

exception Cycle of int list
(** Raised by {!of_edges} with (part of) the offending cycle. *)

let n_tasks t = t.n
let n_edges t = Array.length t.edges
let edges t = t.edges
let edge t e = t.edges.(e)

let parents t i = Array.map fst t.parents.(i)
let children t i = Array.map fst t.children.(i)
let parent_edges t i = t.parents.(i)
let child_edges t i = t.children.(i)
let in_degree t i = Array.length t.parents.(i)
let out_degree t i = Array.length t.children.(i)

let iter_edges f t = Array.iteri (fun e (src, dst) -> f e ~src ~dst) t.edges

(* Kahn's algorithm over in-degrees [indeg] (consumed); raises [Cycle]
   listing nodes left with nonzero in-degree when edges are cyclic.
   [order] doubles as the FIFO queue: tasks are appended at [tail] and
   popped from [head]. *)
let kahn ~n children indeg =
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
    let children = children.(order.(!head)) in
    incr head;
    for k = 0 to Array.length children - 1 do
      let c, _ = children.(k) in
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

let topological_order t = kahn ~n:t.n t.children (Array.map Array.length t.parents)

(* Stable counting sort of the record indices [idx] by [key.(idx.(k))],
   keys in [0, n). *)
let bucket_by ~n key idx =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun r -> start.(key.(r) + 1) <- start.(key.(r) + 1) + 1) idx;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let out = Array.make (Array.length idx) 0 in
  Array.iter
    (fun r ->
      let k = key.(r) in
      out.(start.(k)) <- r;
      start.(k) <- start.(k) + 1)
    idx;
  out

let sorted_unique src dst =
  let ok = ref true and k = ref 1 in
  while !ok && !k < Array.length src do
    let ps = src.(!k - 1) and s = src.(!k) in
    ok := ps < s || (ps = s && dst.(!k - 1) < dst.(!k));
    incr k
  done;
  !ok

(* Canonical record order: lexicographic (src, dst), one record per
   distinct edge, the last of a run of duplicates winning. Records that
   already arrive sorted and unique keep their positions; otherwise two
   stable bucket passes (by dst, then by src) sort them in O(E + n). *)
let canonical_records ~n src dst =
  let m = Array.length src in
  if sorted_unique src dst then Array.init m Fun.id
  else begin
    let by_src = bucket_by ~n src (bucket_by ~n dst (Array.init m Fun.id)) in
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
  end

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
  let records = canonical_records ~n src dst in
  let m = Array.length records in
  let edges = Array.make m (0, 0) in
  let in_deg = Array.make n 0 and out_deg = Array.make n 0 in
  for e = 0 to m - 1 do
    let s = src.(records.(e)) and d = dst.(records.(e)) in
    edges.(e) <- (s, d);
    out_deg.(s) <- out_deg.(s) + 1;
    in_deg.(d) <- in_deg.(d) + 1
  done;
  let parents = Array.make n [||] and children = Array.make n [||] in
  for i = 0 to n - 1 do
    if in_deg.(i) > 0 then parents.(i) <- Array.make in_deg.(i) (0, 0);
    if out_deg.(i) > 0 then children.(i) <- Array.make out_deg.(i) (0, 0)
  done;
  (* edges are in (src, dst) order, so filling each task's rows in edge
     order leaves parents sorted by src and children by dst; the fill
     counters end back at the degrees, which Kahn then consumes *)
  Array.fill in_deg 0 n 0;
  Array.fill out_deg 0 n 0;
  for e = 0 to m - 1 do
    let s, d = edges.(e) in
    parents.(d).(in_deg.(d)) <- (s, e);
    in_deg.(d) <- in_deg.(d) + 1;
    children.(s).(out_deg.(s)) <- (d, e);
    out_deg.(s) <- out_deg.(s) + 1
  done;
  ignore (kahn ~n children in_deg) (* validates acyclicity, raises Cycle *);
  ({ n; edges; parents; children }, records)

let of_edges ~n edge_list =
  let src = Array.of_list (List.map fst edge_list) in
  let dst = Array.of_list (List.map snd edge_list) in
  fst (of_edge_arrays ~n src dst)

let is_edge t ~src ~dst =
  Array.exists (fun (d, _) -> d = dst) t.children.(src)

let roots t =
  Array.to_list (Array.init t.n Fun.id)
  |> List.filter (fun i -> in_degree t i = 0)

let leaves t =
  Array.to_list (Array.init t.n Fun.id)
  |> List.filter (fun i -> out_degree t i = 0)

(* Longest-path level of each task: roots at 0, every edge increments. *)
let levels t =
  let level = Array.make t.n 0 in
  let order = topological_order t in
  Array.iter
    (fun i ->
      Array.iter
        (fun (p, _) -> if level.(p) + 1 > level.(i) then level.(i) <- level.(p) + 1)
        t.parents.(i))
    order;
  level

let depth t =
  if t.n = 0 then 0 else 1 + Array.fold_left max 0 (levels t)

let pp ppf t =
  Fmt.pf ppf "dag<%d tasks, %d edges, depth %d>" t.n (n_edges t) (depth t)
