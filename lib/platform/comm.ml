(* Point-to-point communication model. The paper defines the time to
   transmit one bit from machine i to machine j as
       CMT(i, j) = 1 / min(BW(i), BW(j))
   Same-machine transfers are free and instantaneous (assumption (a)). *)

let cmt grid ~src ~dst =
  if src = dst then 0.
  else begin
    let bw_src = (Grid.machine grid src).Machine.bandwidth in
    let bw_dst = (Grid.machine grid dst).Machine.bandwidth in
    1. /. Float.min bw_src bw_dst
  end

(* The two duration formulas, shared by the scalar functions below and
   the table kernels further down. *)
let[@inline] transfer_seconds_of ~bits cmt =
  if bits < 0. then invalid_arg "Comm.transfer_seconds: negative size";
  bits *. cmt

let[@inline] worst_case_seconds_of ~bits min_bandwidth = bits /. min_bandwidth

let transfer_seconds grid ~src ~dst ~bits =
  transfer_seconds_of ~bits (cmt grid ~src ~dst)

let transfer_cycles grid ~src ~dst ~bits =
  if src = dst then 0
  else Units.cycles_of_seconds (transfer_seconds grid ~src ~dst ~bits)

(* Energy billed to the sender for occupying its transmitter for the whole
   (integer-cycle) duration of the transfer; receiving costs nothing. *)
let transfer_energy grid ~src ~dst ~bits =
  if src = dst then 0.
  else begin
    let cycles = transfer_cycles grid ~src ~dst ~bits in
    Machine.transmit_energy (Grid.machine grid src)
      ~seconds:(Units.seconds_of_cycles cycles)
  end

(* Worst-case transfer cost out of [src]: the recipient is assumed to sit on
   the lowest-bandwidth link in the grid. Used by the SLRH feasibility
   check, which cannot know where children will be mapped. *)
let worst_case_cycles grid ~bits =
  Units.cycles_of_seconds (worst_case_seconds_of ~bits (Grid.min_bandwidth grid))

let worst_case_energy grid ~src ~bits =
  let cycles = worst_case_cycles grid ~bits in
  Machine.transmit_energy (Grid.machine grid src)
    ~seconds:(Units.seconds_of_cycles cycles)

(* ---- per-run rate tables ----

   The scheduler's hot loops price transfers and executions hundreds of
   times per run. The scalar functions above take and return floats, and
   a float crossing a module boundary is boxed (the dev profile compiles
   with -opaque, so nothing is inlined across modules); [Grid.min_bandwidth]
   is also a fold over every machine per call. A table reads the grid
   once — CMT per machine pair through [cmt], the minimum bandwidth
   through [Grid.min_bandwidth], the rates per machine — and its kernels
   take every float operand from an array slot and write every float
   result into one. They evaluate the same operations in the same order
   as the scalar functions (the duration formulas are shared above, the
   rounding is [Units.cycles_of_seconds_at], the energy is
   [Machine.energy_in_place] of [Units.seconds_of_cycles_into]), so each
   result is bit-identical to its scalar counterpart. A table is owned by
   one run: [seconds] is its kernels' scratch and [staging] the callers'. *)
type table = {
  n : int;
  cmt_of : float array;  (* src * n + dst -> [cmt] *)
  min_bandwidth : float;
  transmit_rate : float array;
  compute_rate : float array;
  seconds : float array;  (* one slot: a duration on its way to Units *)
  staging : float array;  (* one slot: a caller's operand or result *)
}

let table grid =
  let n = Grid.n_machines grid in
  let rate f = Array.init n (fun j -> f (Grid.machine grid j)) in
  {
    n;
    cmt_of = Array.init (n * n) (fun k -> cmt grid ~src:(k / n) ~dst:(k mod n));
    min_bandwidth = Grid.min_bandwidth grid;
    transmit_rate = rate (fun m -> m.Machine.transmit_rate);
    compute_rate = rate (fun m -> m.Machine.compute_rate);
    seconds = [| 0. |];
    staging = [| 0. |];
  }

let staging tb = tb.staging

let transfer_cycles_at tb ~src ~dst bits i =
  if src = dst then 0
  else begin
    tb.seconds.(0) <- transfer_seconds_of ~bits:bits.(i) tb.cmt_of.((src * tb.n) + dst);
    Units.cycles_of_seconds_at tb.seconds 0
  end

let worst_case_cycles_at tb bits i =
  tb.seconds.(0) <- worst_case_seconds_of ~bits:bits.(i) tb.min_bandwidth;
  Units.cycles_of_seconds_at tb.seconds 0

let[@inline] energy_into rates ~machine ~cycles a i =
  Units.seconds_of_cycles_into a i cycles;
  Machine.energy_in_place rates machine a i

let transfer_energy_into tb ~src ~cycles a i =
  energy_into tb.transmit_rate ~machine:src ~cycles a i

let exec_energy_into tb ~machine ~cycles a i =
  energy_into tb.compute_rate ~machine ~cycles a i
