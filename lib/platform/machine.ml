(* Machine characterisation per paper Table 2. Each machine j carries:
   - B(j): battery energy capacity (energy units)
   - E(j): energy consumption rate while computing (units/s)
   - C(j): energy consumption rate while transmitting (units/s)
   - BW(j): communication bandwidth (bits/s)
   "Fast" is notebook-class (Dell Precision M60), "slow" is PDA-class
   (Dell Axim X5); fast executes ~10x faster than slow (the speed ratio
   itself lives in the ETC matrices, not here). *)

type klass = Fast | Slow

type profile = {
  klass : klass;
  battery : float; (* B(j), energy units *)
  compute_rate : float; (* E(j), units/s *)
  transmit_rate : float; (* C(j), units/s *)
  bandwidth : float; (* BW(j), bits/s *)
}

let fast_profile =
  { klass = Fast; battery = 580.; compute_rate = 0.1; transmit_rate = 0.2; bandwidth = 8e6 }

let slow_profile =
  { klass = Slow; battery = 58.; compute_rate = 0.001; transmit_rate = 0.002; bandwidth = 4e6 }

(* Battery scaling is how workloads are shrunk proportionally (DESIGN.md
   section 3, substitution 5): scaling |T|, tau and B(j) by the same factor
   preserves which constraints bind. *)
let scale_battery factor p =
  if factor <= 0. then invalid_arg "Machine.scale_battery: factor must be positive";
  { p with battery = p.battery *. factor }

(* Bandwidth scaling models link-quality churn (interference, mobility):
   the churn engine degrades a machine's link mid-run by a factor. *)
let scale_bandwidth factor p =
  if factor <= 0. then invalid_arg "Machine.scale_bandwidth: factor must be positive";
  { p with bandwidth = p.bandwidth *. factor }

let[@inline] energy ~rate ~seconds = rate *. seconds
let compute_energy p ~seconds = energy ~rate:p.compute_rate ~seconds
let transmit_energy p ~seconds = energy ~rate:p.transmit_rate ~seconds

(* [energy] over array slots, so no float crosses a module boundary
   boxed: [a.(i)] holds the seconds on entry and the energy on return. *)
let energy_in_place rates j a i = a.(i) <- energy ~rate:rates.(j) ~seconds:a.(i)

let klass_to_string = function Fast -> "fast" | Slow -> "slow"

let pp ppf p =
  Fmt.pf ppf "%s<B=%g E=%g C=%g BW=%g>" (klass_to_string p.klass) p.battery
    p.compute_rate p.transmit_rate p.bandwidth

let equal_klass a b =
  match (a, b) with Fast, Fast | Slow, Slow -> true | (Fast | Slow), _ -> false
