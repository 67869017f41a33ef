(* Flat structure-of-arrays candidate-pool arena for the SoA scheduler
   mode ([Slrh.params.mode = `Soa]).

   The rescan oracle materialises one heap structure per free machine
   per timestep: an int list for the pool, a (task, version, score)
   tuple per candidate, a sorted copy of that list, and a closure or two
   around every span. The arena replaces all of it with preallocated
   parallel arrays owned by the run:

   - per machine, a [row] of task ids, best versions and scores, filled
     in ready-list order (the exact order the boxed path scores in, so
     histogram observation sequences match bit for bit);
   - one flat parent-bound store per (task, machine) — the ready floor
     and incoming communication energy of a candidate, unpacked into an
     int array and a float array so neither lookups nor writes allocate;
   - one shared [order] permutation into which each pool is selected,
     position by position and only as far as the walk reads, by
     (score desc, task asc) without moving the rows — the rows keep
     their fill order, which is what pool reuse re-scores next timestep.

   Epoch discipline (DESIGN.md section 13): a row stamped with the
   commit epoch ([Schedule.n_mapped]) at build time is reused while the
   epoch is unchanged, because commits are the only intra-run mutation
   of the ready set, the mapped set and the batteries. The arena records
   no decision ledger: a ledger run takes the rescan walk and never
   builds one.

   Rows start small and regrow geometrically, and regrowth allocates
   FRESH arrays — never [Array.blit] — because it only ever happens at
   the top of a rebuild, which overwrites every slot it uses. Capacity,
   high-water occupancy and the regrowth count are exposed so the bench
   gauges ("slrh/pool_capacity", "slrh/pool_hwm", "slrh/pool_regrown")
   surface arena sizing instead of capping it silently. *)

open Agrid_workload

module Flat = struct
  type row = {
    mutable tasks : int array;  (* pool task ids, ready-list order *)
    mutable versions : Version.t array;  (* best version per slot *)
    mutable scores : float array;  (* best score per slot *)
    mutable count : int;  (* live slots *)
    counts : Feasibility.filter_counts;
        (* |raw pool|, |ready set| — "feasibility/admitted"/"checked" replay *)
    mutable epoch : int;  (* Schedule.n_mapped at build; -1 = never built *)
  }

  type t = {
    memo : Feasibility.Memo.t;
    n_machines : int;
    n_tasks : int;
    rows : row array;  (* one per machine *)
    bound_ready : int array;  (* task * n_machines + machine -> ready floor *)
    bound_comm : float array;  (* task * n_machines + machine -> comm energy *)
    bound_known : Bytes.t;  (* '\001' once the slot above is priced *)
    order : int array;  (* shared walk permutation, length n_tasks *)
    mutable selected : int;  (* order.(0 .. selected - 1) is final *)
    mutable capacity : int;  (* largest row capacity *)
    mutable hwm : int;  (* largest pool ever held *)
    mutable regrown : int;  (* row regrowth events (fresh arrays, no copy) *)
  }

  let default_capacity = 16

  let create ?(initial_capacity = default_capacity) ~feas_mode workload =
    if initial_capacity <= 0 then
      invalid_arg "Pool.Flat.create: initial capacity must be positive";
    let n_tasks = Workload.n_tasks workload in
    let n_machines = Workload.n_machines workload in
    let cap = min initial_capacity (max 1 n_tasks) in
    {
      memo = Feasibility.Memo.create ~mode:feas_mode workload;
      n_machines;
      n_tasks;
      rows =
        Array.init n_machines (fun _ ->
            {
              tasks = Array.make cap 0;
              versions = Array.make cap Version.Primary;
              scores = Array.make cap 0.;
              count = 0;
              counts = { Feasibility.admitted = 0; checked = 0 };
              epoch = -1;
            });
      bound_ready = Array.make (n_tasks * n_machines) min_int;
      bound_comm = Array.make (n_tasks * n_machines) 0.;
      bound_known = Bytes.make (n_tasks * n_machines) '\000';
      order = Array.init (max 1 n_tasks) (fun i -> i);
      selected = 0;
      capacity = cap;
      hwm = 0;
      regrown = 0;
    }

  let capacity t = t.capacity
  let hwm t = t.hwm
  let regrown t = t.regrown

  (* Make [row] able to hold [n] candidates and return its task buffer.
     Only called at the top of a rebuild, before any slot is written, so
     stale contents are dead and the regrowth allocates fresh arrays
     without copying — pinned by the regrowth unit test. The discarded
     row is garbage for the GC, but regrowth happens O(log max-pool)
     times per run, never on the steady-state path. *)
  let ensure t row n =
    let cap = Array.length row.tasks in
    if n > cap then begin
      let cap' = ref cap in
      while !cap' < n do
        cap' := !cap' * 2
      done;
      row.tasks <- Array.make !cap' 0;
      row.versions <- Array.make !cap' Version.Primary;
      row.scores <- Array.make !cap' 0.;
      row.count <- 0;
      t.regrown <- t.regrown + 1;
      if !cap' > t.capacity then t.capacity <- !cap'
    end;
    row.tasks

  (* Record a freshly built pool's occupancy (for the high-water gauge). *)
  let note_occupancy t n = if n > t.hwm then t.hwm <- n

  (* A pool of [n] slots was just scored: forget the previous pool's
     selection. *)
  let reset_order t n =
    let order = t.order in
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    t.selected <- 0

  (* The row slot at walk position [i] of a pool of [n] scored slots,
     selecting positions on demand: each step moves the best remaining
     slot by (score desc, task asc) — the boxed [List.sort] comparator —
     into the next position. Task ids in a pool are distinct, so the
     comparator is a strict total order and every selected prefix equals
     the fully sorted one; a walk that stops after a few positions never
     pays for ordering the rest. Allocation-free; the rows keep their
     fill order for reuse-path re-scoring. *)
  let nth t row ~n i =
    let order = t.order in
    let scores = row.scores in
    let tasks = row.tasks in
    while t.selected <= i do
      let p = t.selected in
      let best = ref p in
      for q = p + 1 to n - 1 do
        let kq = order.(q) and kb = order.(!best) in
        let c = Float.compare scores.(kq) scores.(kb) in
        if c > 0 || (c = 0 && tasks.(kq) < tasks.(kb)) then best := q
      done;
      let k = order.(!best) in
      order.(!best) <- order.(p);
      order.(p) <- k;
      t.selected <- p + 1
    done;
    order.(i)
end
