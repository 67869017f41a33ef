(* The scenario service. Concurrency layout, a two-stage pipeline:

   - producers (stdin/socket reader) call submit, which runs the shared
     admission ladder in [Front]: id, parse, health/stats, then [admit]
     realizes the job (Job.prepare) on the producer's domain, outside the
     lock, then a never-blocking try_push onto the bounded Chan — a full
     buffer becomes a typed queue_full response (backpressure). The queue
     therefore holds realized workloads, and a job rejected at the queue
     or its tenant cap was realized for nothing. What the server adds to
     the ladder is the tenant-cap reservation, taken in the front's
     [claim] and handed back in its [undo];
   - one controller domain runs Parallel.run_workers over `workers`
     persistent worker loops, each popping prepared jobs until
     seal/close and running only the scheduler, summary and encode
     (Job.execute);
   - every domain sizes its own minor heap (Front.size_minor_heap) at
     its first job: the producer's in Front.submit, a worker's in its
     loop;
   - an exception either stage raises that Job does not map is caught
     here (job_fault): the job is answered errored and service goes on;
   - `lock` guards all mutable counters here and in the front, and every
     pool-sink operation (sinks are single-domain; the mutex serializes
     producer and worker access); `idle` signals outstanding = 0.
     Responses go out through [Front.send] under the front's output lock
     alone, never while holding `lock`. *)

module Sink = Agrid_obs.Sink
module Trace = Agrid_obs.Trace
module Clock = Agrid_obs.Clock
module Chan = Agrid_par.Parallel.Chan

type entry = {
  e_id : int;
  e_tag : string option;
  e_job : Job.prepared;
  e_submitted : float;  (* before realize, so latency covers it *)
  e_queued : float;  (* after realize: queue wait starts here *)
  e_respond : string -> unit;
}

(* Per-tenant admission bookkeeping (guarded by t.lock): outstanding
   jobs now queued or running, lifetime high-water of that count, and
   lifetime quota rejections. *)
type tenant_state = {
  tn_cap : int;
  mutable tn_outstanding : int;
  mutable tn_high_water : int;
  mutable tn_rejected : int;
}

type t = {
  workers : int;
  obs : Sink.t;
  prepare : Job.spec -> Job.prepared;
  execute : obs:Sink.t -> Job.prepared -> Job.result;
  tenants : (string, tenant_state) Hashtbl.t;
      (* admission caps from [?tenant_caps]; tenants not listed here are
         never capped *)
  chan : entry Chan.t;
  front : entry Front.t;
  lock : Mutex.t;
  idle : Condition.t;
  mutable outstanding : int;  (* claimed jobs queued or in flight *)
  mutable deadline_missed : int;
  mutable errored : int;
  mutable tenant_quota : int;
  mutable worker_exn : int;
  heaps : int array;
      (* minor heap words each worker loop's domain ran with, recorded
         as the loop ends *)
  mutable controller : unit Domain.t option;
  mutable state : [ `Created | `Running | `Stopped ];
}

let with_lock = Front.with_lock

(* Snapshot stride of the per-job sinks an instrumented pool hands each
   job. *)
let job_stride = 8

let create ?(obs = Sink.noop) ?trace ?(tenant_caps = []) ?workers
    ?(queue_capacity = 64) ?(prepare = Job.prepare)
    ?(execute = fun ~obs p -> Job.execute ~obs p) () =
  let workers =
    match workers with Some w -> w | None -> Agrid_par.Parallel.default_domains ()
  in
  if workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  let tenants = Hashtbl.create 8 in
  List.iter
    (fun (name, cap) ->
      if name = "" then invalid_arg "Server.create: empty tenant id";
      if cap < 1 then invalid_arg "Server.create: tenant cap must be >= 1";
      if Hashtbl.mem tenants name then
        invalid_arg ("Server.create: duplicate tenant cap for " ^ name);
      Hashtbl.add tenants name
        { tn_cap = cap; tn_outstanding = 0; tn_high_water = 0; tn_rejected = 0 })
    tenant_caps;
  let chan = Chan.create ~capacity:queue_capacity in
  let lock = Mutex.create () in
  {
    workers;
    obs;
    prepare;
    execute;
    tenants;
    chan;
    front = Front.create Front.Serve ~obs ~trace ~lock chan;
    lock;
    idle = Condition.create ();
    outstanding = 0;
    deadline_missed = 0;
    errored = 0;
    tenant_quota = 0;
    worker_exn = 0;
    heaps = Array.make workers 0;
    controller = None;
    state = `Created;
  }

let tenant_of t (spec : Job.spec) =
  match spec.Job.tenant with
  | None -> None
  | Some name -> Hashtbl.find_opt t.tenants name

(* Release a capped tenant's admission slot (caller holds t.lock). *)
let tenant_release t (spec : Job.spec) =
  match tenant_of t spec with
  | None -> ()
  | Some ts -> ts.tn_outstanding <- ts.tn_outstanding - 1

let spec_of (e : entry) = e.e_job.Job.spec

(* Record a trace event for an entry (caller holds t.lock). A relayed job
   carries the router's trace id; locally submitted jobs derive their
   own from the collector's nonce. *)
let trace_ev t (e : entry) kind =
  Front.record t.front ~trace_id:(spec_of e).Job.trace_id ~job:e.e_id kind

(* callers hold t.lock *)
let finish_one t =
  t.outstanding <- t.outstanding - 1;
  if t.outstanding = 0 then Condition.broadcast t.idle

(* An exception [Job] does not map is a fault of one job, not of the
   service: it is counted, and the job is answered [errored] with the
   exception's name. *)
let job_fault t exn =
  with_lock t.lock (fun () ->
      t.worker_exn <- t.worker_exn + 1;
      Sink.incr t.obs "serve/worker_exn");
  "job raised " ^ Printexc.to_string exn

let run_entry t e =
  let job_sink =
    if Sink.enabled t.obs then Sink.create ~stride:job_stride () else Sink.noop
  in
  if Front.trace t.front <> None then
    with_lock t.lock (fun () ->
        trace_ev t e (Trace.Exec { queue_wait_s = Clock.now_s () -. e.e_queued }));
  let res =
    match t.execute ~obs:job_sink e.e_job with
    | res -> res
    | exception exn -> Job.errored (job_fault t exn)
  in
  let latency = Clock.now_s () -. e.e_submitted in
  Front.send t.front e.e_respond
    (Codec.result_line ~id:e.e_id ~tag:e.e_tag ~latency_s:latency res);
  with_lock t.lock (fun () ->
      let counter =
        match res.Job.status with
        | Job.Ok_done -> "serve/completed"
        | Job.Deadline_missed ->
            t.deadline_missed <- t.deadline_missed + 1;
            "serve/deadline_missed"
        | Job.Errored _ ->
            t.errored <- t.errored + 1;
            "serve/errored"
      in
      Sink.merge_into ~into:t.obs job_sink;
      Front.complete t.front ~trace_id:(spec_of e).Job.trace_id ~job:e.e_id
        ~outcome:(Job.status_to_string res.Job.status) ~counter ~latency_s:latency;
      tenant_release t (spec_of e);
      finish_one t)

let worker_loop t i =
  let rec loop () =
    match Chan.pop t.chan with
    | None -> ()
    | Some e ->
        Front.size_minor_heap ();
        run_entry t e;
        loop ()
  in
  loop ();
  with_lock t.lock (fun () -> t.heaps.(i) <- (Gc.get ()).Gc.minor_heap_size)

let start t =
  with_lock t.lock (fun () ->
      match t.state with
      | `Running -> ()
      | `Stopped -> invalid_arg "Server.start: already shut down"
      | `Created ->
          t.state <- `Running;
          t.controller <-
            Some
              (Domain.spawn (fun () ->
                   Agrid_par.Parallel.run_workers ~domains:t.workers ~n:t.workers
                     (worker_loop t))))

(* Realize on the calling (reader) domain, outside the lock, so the
   worker only schedules. Then reserve the tenant's admission slot before
   touching the queue so a capped tenant can never overshoot, even with
   racing producers; a queue rejection hands the slot back through
   [undo]. *)
let admit t respond ~id (spec : Job.spec) =
  let submitted = Clock.now_s () in
  let job =
    match t.prepare spec with
    | job -> job
    | exception exn -> { Job.spec; workload = Error (job_fault t exn); realize_ns = 0L }
  in
  let queued = Clock.now_s () in
  let claim () =
    match tenant_of t spec with
    | Some ts when ts.tn_outstanding >= ts.tn_cap ->
        ts.tn_rejected <- ts.tn_rejected + 1;
        t.tenant_quota <- t.tenant_quota + 1;
        Sink.incr t.obs "serve/tenant_quota";
        Error
          (Codec.rejected_line ~tag:spec.Job.tag ~id ~reason:`Tenant_quota
             ~detail:
               (Fmt.str "tenant %S at its admission cap (%d outstanding)"
                  (Option.value spec.Job.tenant ~default:"") ts.tn_cap)
             ())
    | ts ->
        Option.iter
          (fun ts ->
            ts.tn_outstanding <- ts.tn_outstanding + 1;
            ts.tn_high_water <- max ts.tn_high_water ts.tn_outstanding)
          ts;
        t.outstanding <- t.outstanding + 1;
        Ok ()
  in
  {
    Front.entry =
      {
        e_id = id;
        e_tag = spec.Job.tag;
        e_job = job;
        e_submitted = submitted;
        e_queued = queued;
        e_respond = respond;
      };
    trace_id = spec.Job.trace_id;
    claim;
    undo =
      (fun () ->
        tenant_release t spec;
        finish_one t);
  }

let submit t ~respond line =
  Front.submit t.front ~respond line
    ~health:(Codec.health_line ~workers:t.workers)
    ~load:(fun () -> { Front.in_flight = t.outstanding; workers = t.workers; backends = [] })
    ~admit:(admit t respond)

let quiesce t =
  with_lock t.lock (fun () ->
      while t.outstanding > 0 do
        Condition.wait t.idle t.lock
      done)

let join_pool t =
  let controller = with_lock t.lock (fun () ->
      let c = t.controller in
      t.controller <- None;
      t.state <- `Stopped;
      c)
  in
  Option.iter Domain.join controller

let drain t =
  (match with_lock t.lock (fun () -> t.state) with
  | `Created -> start t
  | `Running | `Stopped -> ());
  Chan.seal t.chan;
  quiesce t;
  join_pool t

let stop t =
  let abandoned = Chan.close t.chan in
  List.iter
    (fun e ->
      let line =
        with_lock t.lock (fun () ->
            tenant_release t (spec_of e);
            finish_one t;
            Front.drop t.front ~trace_id:(spec_of e).Job.trace_id ~job:e.e_id ~tag:e.e_tag)
      in
      Front.send t.front e.e_respond line)
    abandoned;
  quiesce t;
  join_pool t;
  List.length abandoned

type stats = {
  s_requests : int;
  s_accepted : int;
  s_completed : int;
  s_deadline_missed : int;
  s_errored : int;
  s_worker_exn : int;
  s_queue_full : int;
  s_malformed : int;
  s_draining : int;
  s_tenant_quota : int;
  s_dropped : int;
  s_health : int;
  s_stats : int;
  s_respond_errors : int;
  s_queue_high_water : int;
}

let stats t =
  with_lock t.lock (fun () ->
      let c = Front.counts t.front in
      {
        s_requests = c.Front.requests;
        s_accepted = c.accepted;
        s_completed = c.completed;
        s_deadline_missed = t.deadline_missed;
        s_errored = t.errored;
        s_worker_exn = t.worker_exn;
        s_queue_full = c.queue_full;
        s_malformed = c.malformed;
        s_draining = c.draining;
        s_tenant_quota = t.tenant_quota;
        s_dropped = c.dropped;
        s_health = c.health;
        s_stats = c.stats;
        s_respond_errors = c.respond_errors;
        s_queue_high_water = Chan.high_water t.chan;
      })

let tenant_lookup t name f =
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.tenants name with None -> 0 | Some ts -> f ts)

let tenant_outstanding t name = tenant_lookup t name (fun ts -> ts.tn_outstanding)
let tenant_high_water t name = tenant_lookup t name (fun ts -> ts.tn_high_water)
let tenant_rejected t name = tenant_lookup t name (fun ts -> ts.tn_rejected)

let worker_heap_words t = with_lock t.lock (fun () -> Array.to_list t.heaps)
let queue_depth t = Chan.length t.chan
let uptime_s t = Front.uptime_s t.front
let trace t = Front.trace t.front

let pp_stats ppf s =
  Fmt.pf ppf
    "requests %d accepted %d completed %d (deadline_missed %d errored %d \
     worker_exn %d) rejected (full %d malformed %d draining %d tenant_quota %d) dropped %d \
     health %d stats %d respond_errors %d queue_high_water %d"
    s.s_requests s.s_accepted s.s_completed s.s_deadline_missed s.s_errored
    s.s_worker_exn s.s_queue_full s.s_malformed s.s_draining s.s_tenant_quota s.s_dropped
    s.s_health s.s_stats s.s_respond_errors s.s_queue_high_water
