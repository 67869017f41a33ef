(* The three static ad hoc grid configurations of paper Table 1 / Table 4:
     Case A: 2 fast + 2 slow (baseline, all machines present)
     Case B: 2 fast + 1 slow (one slow machine lost)
     Case C: 1 fast + 2 slow (one fast machine lost)
   Machine 0 is always a fast machine — the paper's upper-bound calculation
   uses machine 0 as the reference machine. *)

type case = A | B | C

type t = { name : string; machines : Machine.profile array }

let make ~name machines =
  if Array.length machines = 0 then invalid_arg "Grid.make: no machines";
  { name; machines }

let of_case ?(battery_scale = 1.) case =
  let fast = Machine.scale_battery battery_scale Machine.fast_profile in
  let slow = Machine.scale_battery battery_scale Machine.slow_profile in
  match case with
  | A -> make ~name:"Case A" [| fast; fast; slow; slow |]
  | B -> make ~name:"Case B" [| fast; fast; slow |]
  | C -> make ~name:"Case C" [| fast; slow; slow |]

let all_cases = [ A; B; C ]

let case_name = function A -> "Case A" | B -> "Case B" | C -> "Case C"

let name t = t.name
let n_machines t = Array.length t.machines
let machine t j = t.machines.(j)
let machines t = t.machines

let count_klass t k =
  Array.fold_left
    (fun acc (m : Machine.profile) -> if Machine.equal_klass m.klass k then acc + 1 else acc)
    0 t.machines

(* Total system energy: TSE = sum_j B(j). *)
let total_system_energy t =
  Array.fold_left (fun acc (m : Machine.profile) -> acc +. m.battery) 0. t.machines

(* Lowest bandwidth of any machine — the worst link in the system, used by
   SLRH's worst-case communication-energy feasibility check. *)
let min_bandwidth t =
  Array.fold_left
    (fun acc (m : Machine.profile) -> Float.min acc m.bandwidth)
    infinity t.machines

(* Degrade (or restore) one machine's link mid-run — the churn engine's
   bandwidth event. The grid is otherwise unchanged: indices are stable. *)
let scale_bandwidth t ~machine ~factor =
  if machine < 0 || machine >= n_machines t then invalid_arg "Grid.scale_bandwidth";
  let machines =
    Array.mapi
      (fun i m -> if i = machine then Machine.scale_bandwidth factor m else m)
      t.machines
  in
  { t with machines }

let pp ppf t =
  Fmt.pf ppf "%s: %a" t.name
    Fmt.(array ~sep:(any ", ") Machine.pp)
    t.machines
