(* Fixed-bucket histogram for telemetry aggregation. Buckets are
   arbitrary strictly-increasing upper bounds — log-spaced for span durations, linear for pool sizes — and two
   histograms with identical bounds merge bucket-wise, which is what lets
   per-domain telemetry aggregate without locks on the hot path.

   Bucket [i] counts observations in [bounds.(i-1), bounds.(i)); bucket 0
   is the underflow bucket (-inf, bounds.(0)) and the extra last bucket is
   the overflow [bounds.(k-1), +inf). NaN observations are counted apart
   and never enter the buckets, the count or the sum. *)

type t = {
  bounds : float array;
  counts : int array;  (* length = Array.length bounds + 1; last = overflow *)
  mutable n : int;  (* non-NaN observations *)
  mutable sum : float;
  mutable max_v : float;  (* largest non-NaN observation; -inf when empty *)
  mutable nan_count : int;
}

let make ~bounds =
  let k = Array.length bounds in
  if k = 0 then invalid_arg "Hist.make: at least one bound required";
  Array.iteri
    (fun i b ->
      if Float.is_nan b then invalid_arg "Hist.make: NaN bound";
      if i > 0 && not (b > bounds.(i - 1)) then
        invalid_arg "Hist.make: bounds must be strictly increasing")
    bounds;
  {
    bounds = Array.copy bounds;
    counts = Array.make (k + 1) 0;
    n = 0;
    sum = 0.;
    max_v = Float.neg_infinity;
    nan_count = 0;
  }

let linear_bounds ~lo ~hi ~n =
  if n <= 0 then invalid_arg "Hist.linear_bounds: n must be positive";
  if not (hi > lo) then invalid_arg "Hist.linear_bounds: hi must exceed lo";
  Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int (i + 1) /. float_of_int n))

let exponential_bounds ~lo ~factor ~n =
  if n <= 0 then invalid_arg "Hist.exponential_bounds: n must be positive";
  if not (lo > 0.) then invalid_arg "Hist.exponential_bounds: lo must be positive";
  if not (factor > 1.) then invalid_arg "Hist.exponential_bounds: factor must exceed 1";
  Array.init n (fun i -> lo *. (factor ** float_of_int i))

(* First bucket index whose upper bound exceeds [x] (binary search); the
   overflow bucket when none does. *)
let bucket_of t x =
  let lo = ref 0 and hi = ref (Array.length t.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x < t.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe t x =
  if Float.is_nan x then t.nan_count <- t.nan_count + 1
  else begin
    let b = bucket_of t x in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x > t.max_v then t.max_v <- x
  end

let count t = t.n
let nan_count t = t.nan_count
let sum t = t.sum
let mean t = if t.n = 0 then Float.nan else t.sum /. float_of_int t.n
let max_value t = if t.n = 0 then Float.nan else t.max_v
let bounds t = Array.copy t.bounds
let counts t = Array.copy t.counts

(* Approximate quantile by linear interpolation inside the target bucket;
   the overflow bucket clamps to the last bound (no upper edge to
   interpolate toward). NaN on an empty histogram. *)
let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Hist.quantile: q outside [0, 1]";
  if t.n = 0 then Float.nan
  else begin
    let k = Array.length t.bounds in
    let target = q *. float_of_int t.n in
    let i = ref 0 and below = ref 0 in
    while !i < k && float_of_int (!below + t.counts.(!i)) < target do
      below := !below + t.counts.(!i);
      incr i
    done;
    if !i >= k then t.bounds.(k - 1)
    else begin
      (* The underflow bucket has no stored lower edge. Historically the
         edge was [min 0 bounds.(0)], which collapses to a zero-width
         bucket (lo = hi) whenever the first bound is negative; keep 0 as
         the edge for positive first bounds (pinned by the bench baseline)
         and synthesize one first-bucket-width below the bound
         otherwise. *)
      let lo =
        if !i = 0 then
          if t.bounds.(0) > 0. then 0.
          else
            let width =
              if k > 1 then t.bounds.(1) -. t.bounds.(0)
              else Float.max 1. (Float.abs t.bounds.(0))
            in
            t.bounds.(0) -. width
        else t.bounds.(!i - 1)
      in
      let hi = t.bounds.(!i) in
      let c = t.counts.(!i) in
      if c = 0 then hi
      else lo +. ((hi -. lo) *. (target -. float_of_int !below) /. float_of_int c)
    end
  end

let same_bounds a b = a.bounds = b.bounds

let merge_into ~into src =
  if not (same_bounds into src) then invalid_arg "Hist.merge_into: bounds differ";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  into.nan_count <- into.nan_count + src.nan_count

let copy t =
  {
    bounds = t.bounds;
    counts = Array.copy t.counts;
    n = t.n;
    sum = t.sum;
    max_v = t.max_v;
    nan_count = t.nan_count;
  }

let pp ppf t =
  Fmt.pf ppf "hist<n=%d mean=%.4g p50=%.4g p95=%.4g nan=%d>" t.n (mean t)
    (quantile t 0.5) (quantile t 0.95) t.nan_count
