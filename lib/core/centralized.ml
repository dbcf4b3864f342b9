module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Trace = Skyloft_stats.Trace
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module Rc = Runtime_core

(* The centralized runtime is Runtime_core plus its DISPATCH substrate: a
   dedicated dispatcher core modelled as a serial resource that assigns
   work to workers and preempts over-quantum requests with IPIs
   (Shinjuku-style PS).  Lifecycle, accounting, BE occupancy, deadlines,
   allocator and metrics all live in the core. *)

type mechanism = {
  mech_name : string;
  dispatch_cost : Time.t;
  preempt_send : Time.t;
  preempt_delivery : Time.t;
  preempt_receive : Time.t;
  worker_switch : Time.t;
}

let skyloft_mechanism =
  {
    mech_name = "Skyloft";
    dispatch_cost = 100;
    preempt_send = Costs.uipi_send_ns ~cross_numa:false;
    preempt_delivery = Costs.uipi_delivery_ns ~cross_numa:false;
    preempt_receive = Costs.uipi_receive_ns ~cross_numa:false + Costs.uthread_yield_ns;
    worker_switch = Costs.uthread_yield_ns;
  }

(* Dune posted interrupts avoid kernel entries on the sender but trap into
   the guest on delivery; measured overheads in the Shinjuku paper are a
   small multiple of user IPIs. *)
let shinjuku_mechanism =
  {
    mech_name = "Shinjuku";
    dispatch_cost = 120;
    preempt_send = 250;
    preempt_delivery = 1_400;
    preempt_receive = 650;
    worker_switch = 60;
  }

(* ghOSt: every dispatch is an agent decision committed through a kernel
   transaction; preemption rides kernel IPIs; workers are kernel threads. *)
let ghost_mechanism =
  {
    mech_name = "ghOSt";
    dispatch_cost = 1_200;
    preempt_send = Costs.kipi_send_ns;
    preempt_delivery = Costs.kipi_delivery_ns;
    preempt_receive = Costs.kipi_receive_ns;
    worker_switch = Costs.linux_ctx_switch_ns;
  }

type worker = {
  ex : Rc.exec;
  mutable gen : int;  (* assignment generation, guards stale events *)
  mutable reserved : bool;  (* an assignment is in flight *)
  mutable incoming : int;  (* app of the in-flight assignment; -1 if none *)
  qtimer : Engine.timer;  (* reusable quantum timer, re-armed per dispatch *)
  mutable qt_gen : int;  (* [gen] at the last quantum arm *)
}

type t = {
  rc : Rc.t;
  dispatcher_core : int;
  workers : worker array;
  mech : mechanism;
  quantum : Time.t;
  alloc_cfg : Allocator.config;
  immediate : bool;  (* preempt BE the instant an LC request cannot place *)
  mutable disp_busy_until : Time.t;
  mutable dispatches : int;
  mutable failovers : int;
}

let now t = Rc.now t.rc
let quantum t = t.quantum

(* The dispatcher is a serial resource; [f] runs when it has spent [cost]
   on this operation. *)
let dispatcher_do t cost f =
  let start = max (now t) t.disp_busy_until in
  t.disp_busy_until <- start + cost;
  ignore (Engine.at t.rc.Rc.engine (start + cost) f)

(* ---- worker-side execution ---------------------------------------------- *)

let rec start_on t w (task : Task.t) =
  w.reserved <- false;
  w.incoming <- -1;
  t.dispatches <- t.dispatches + 1;
  let switch_cost =
    if task.Task.app = w.ex.Rc.active_app then t.mech.worker_switch
    else Rc.app_switch t.rc w.ex task
  in
  task.Task.wake_time <- None;
  let start = Rc.begin_run t.rc w.ex task ~switch_cost in
  w.gen <- w.gen + 1;
  (* Arm the quantum timer for LC work (Shinjuku-style PS): the worker's
     one reusable timer, re-armed per dispatch, supersedes stale firings. *)
  if t.quantum > 0 && not (Rc.is_be t.rc task) then begin
    w.qt_gen <- w.gen;
    Engine.arm w.qtimer ~at:(start + t.quantum)
  end;
  Rc.run_after_switch t.rc w.ex task ~switch_cost

and assign t w (task : Task.t) =
  w.reserved <- true;
  w.incoming <- task.Task.app;
  dispatcher_do t t.mech.dispatch_cost (fun () -> start_on t w task)

and try_next t w =
  if (not w.reserved) && w.ex.Rc.current = None && not (Rc.unit_capped t.rc w.ex)
  then begin
    match
      Rc.next_live t.rc (fun () ->
          t.rc.Rc.policy.task_dequeue ~cpu:w.ex.Rc.exec_core)
    with
    | Some task -> assign t w task
    | None ->
        (* BE work only on cores inside the allocator's current grant *)
        if Rc.be_occupancy t.rc < t.rc.Rc.be_allowance then (
          match Rc.next_live t.rc (fun () -> Runqueue.pop_head t.rc.Rc.be_queue) with
          | Some be -> assign t w be
          | None -> ())
  end

(* Preemption of the task currently on [w]; the caller already charged the
   delivery latency.  [requeue] decides where the preempted task goes. *)
and do_preempt t w gen ~requeue =
  if w.gen = gen then
    match Rc.depose t.rc w.ex ~overhead:t.mech.preempt_receive with
    | Some task ->
        requeue task;
        try_next t w
    | None -> ()

(* The preemption notification in flight from dispatcher to worker.  Its
   modeled delivery path is an engine delay, so injected IPI faults are
   consulted here: a dropped notification silently loses the preemption
   (the §3.2 lost-wakeup window — the watchdog is the backstop), a delayed
   one stretches the delivery latency. *)
and deliver_preempt t w gen ~requeue =
  match
    Machine.fault_fate t.rc.Rc.machine ~core:w.ex.Rc.exec_core
      Vectors.uintr_notification
  with
  | Machine.Drop -> ()
  | Machine.Delay d ->
      ignore
        (Engine.after t.rc.Rc.engine (t.mech.preempt_delivery + d) (fun () ->
             do_preempt t w gen ~requeue))
  | Machine.Deliver ->
      ignore
        (Engine.after t.rc.Rc.engine t.mech.preempt_delivery (fun () ->
             do_preempt t w gen ~requeue))

and quantum_check t w (task : Task.t) gen =
  let still_running =
    match w.ex.Rc.current with
    | Some cur -> cur == task && w.gen = gen
    | None -> false
  in
  if still_running then begin
    t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
    dispatcher_do t t.mech.preempt_send (fun () ->
        deliver_preempt t w gen ~requeue:(fun task ->
            t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
              ~reason:Sched_ops.Enq_preempted task))
  end

(* The quantum timer's stable callback: [quantum_check] compares [qt_gen]
   (recorded at arm time) against the live generation, so a dispatch that
   already ended is left alone. *)
let quantum_fire t w =
  match w.ex.Rc.current with
  | Some task -> quantum_check t w task w.qt_gen
  | None -> ()

let preempt_be_worker t w =
  match w.ex.Rc.current with
  | Some task
    when Rc.is_be t.rc task && not (Eventq.is_null w.ex.Rc.completion) ->
      let gen = w.gen in
      t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
      dispatcher_do t t.mech.preempt_send (fun () ->
          deliver_preempt t w gen ~requeue:(fun task ->
              Runqueue.push_head t.rc.Rc.be_queue task));
      true
  | _ -> false

(* ---- watchdog: dispatcher failover + stuck-worker rescue ----------------- *)

let rescue_worker t w ~late =
  Rc.rescued t.rc w.ex ~late;
  do_preempt t w w.gen ~requeue:(fun task ->
      if Rc.is_be t.rc task then Runqueue.push_head t.rc.Rc.be_queue task
      else
        t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
          ~reason:Sched_ops.Enq_preempted task)

let watchdog_scan t ~bound =
  (* Dispatcher failover: the serial dispatcher is wedged more than a full
     bound into the future (host-kernel steal, runaway operation).  Promote
     a worker into the dispatcher role — one inter-application switch, then
     dispatching resumes; operations already queued behind the stall still
     complete at their scheduled times. *)
  if t.disp_busy_until > now t + bound then begin
    t.failovers <- t.failovers + 1;
    Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Failover "dispatcher";
    t.disp_busy_until <- now t + Costs.app_switch_ns
  end;
  Array.iter
    (fun w ->
      if now t >= w.ex.Rc.stolen_until then
        match w.ex.Rc.current with
        | Some task when not (Eventq.is_null w.ex.Rc.completion) ->
            (* A quantum-sized run is legitimate; a full bound past the
               expected preemption point means the preemption was lost. *)
            let allowed =
              bound
              + if t.quantum > 0 && not (Rc.is_be t.rc task) then t.quantum else 0
            in
            let overrun = now t - task.Task.run_start - allowed in
            if overrun > 0 then rescue_worker t w ~late:overrun
        | _ -> ())
    t.workers

(* ---- core allocation ----------------------------------------------------- *)

let queue_length t = t.rc.Rc.probe.Sched_ops.queued ()

(* Change how many workers BE may occupy.  Shrinking preempts the excess
   BE workers with user IPIs; the next LC dispatch on those cores goes
   through [Kmod.switch_to], charging the §5.4 inter-application switch
   cost.  Growing kicks idle workers so they pick up BE work (again paying
   the switch cost at dispatch). *)
let set_be_allowance t n =
  let old = t.rc.Rc.be_allowance in
  t.rc.Rc.be_allowance <- n;
  if n < old then begin
    let excess = ref (Rc.be_occupancy t.rc - n) in
    if !excess > 0 then
      Array.iter
        (fun w -> if !excess > 0 && preempt_be_worker t w then decr excess)
        t.workers
  end
  else if n > old then Array.iter (fun w -> try_next t w) t.workers

(* Preempt whatever runs on [w] — LC or BE — because the broker capped the
   worker out; the refugee requeues at the dispatcher (LC) or BE queue
   head.  Rides the same send/deliver path as quantum preemption, so IPI
   faults apply and [try_next]'s gate keeps the worker empty afterwards. *)
let preempt_capped_worker t w =
  match w.ex.Rc.current with
  | Some task when not (Eventq.is_null w.ex.Rc.completion) ->
      let gen = w.gen in
      if Rc.is_be t.rc task then
        t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1
      else t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
      dispatcher_do t t.mech.preempt_send (fun () ->
          deliver_preempt t w gen ~requeue:(fun task ->
              if Rc.is_be t.rc task then Runqueue.push_head t.rc.Rc.be_queue task
              else
                t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
                  ~reason:Sched_ops.Enq_preempted task))
  | _ -> ()

(* The machine-level broker's reclaim/grant muscle: how many workers this
   runtime may occupy at all ({!set_be_allowance} one level up; allowed
   workers are always the creation-order prefix).  Shrinking preempts the
   newly capped workers; an assignment already in flight toward one still
   runs its segment there — enforcement happens at the next scheduling
   point, exactly like a quantum.  Growing redrives dispatch over the
   workers handed back. *)
let set_core_allowance t n =
  let old = t.rc.Rc.core_allowance in
  Rc.set_core_allowance t.rc n;
  let n = t.rc.Rc.core_allowance in
  if n < old then
    Array.iter
      (fun w -> if Rc.unit_capped t.rc w.ex then preempt_capped_worker t w)
      t.workers
  else if n > old then Array.iter (fun w -> try_next t w) t.workers

let core_allowance t = t.rc.Rc.core_allowance
let congestion t = Rc.congestion t.rc

(* ---- construction -------------------------------------------------------- *)

let create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ?(mechanism = skyloft_mechanism) ?alloc ?(immediate = false) ?watchdog ctor =
  if worker_cores = [] then invalid_arg "Centralized.create: no worker cores";
  if List.mem dispatcher_core worker_cores then
    invalid_arg "Centralized.create: dispatcher core cannot also be a worker";
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg "Centralized.create: watchdog bound must be positive"
  | Some _ | None -> ());
  let alloc = match alloc with Some a -> a | None -> Allocator.default_config () in
  let engine = Machine.engine machine in
  let workers =
    Array.of_list
      (List.map
         (fun core_id ->
           {
             ex = Rc.make_exec core_id;
             gen = 0;
             reserved = false;
             incoming = -1;
             qtimer = Engine.timer engine ignore;
             qt_gen = 0;
           })
         worker_cores)
  in
  let t =
    {
      rc = Rc.create machine kmod ~record_wakeups:false ~trace_app_switches:false;
      dispatcher_core;
      workers;
      mech = mechanism;
      quantum;
      alloc_cfg = alloc;
      immediate;
      disp_busy_until = 0;
      dispatches = 0;
      failovers = 0;
    }
  in
  let by_core = Hashtbl.create 16 in
  Array.iter (fun w -> Hashtbl.replace by_core w.ex.Rc.exec_core w) workers;
  Array.iter (fun w -> Engine.set_callback w.qtimer (fun () -> quantum_fire t w)) workers;
  Rc.install_dispatch t.rc
    {
      Rc.d_name = "centralized";
      d_units = Array.map (fun w -> w.ex) workers;
      d_enqueue_cpu = (fun _ -> t.dispatcher_core);
      d_incoming_app =
        (fun ex -> (Hashtbl.find by_core ex.Rc.exec_core).incoming);
      d_released = (fun ex -> let w = Hashtbl.find by_core ex.Rc.exec_core in
                              w.gen <- w.gen + 1);
      d_reschedule =
        (fun ex ~prev:_ -> try_next t (Hashtbl.find by_core ex.Rc.exec_core));
    };
  Rc.install_policy t.rc ctor;
  Array.iter
    (fun w ->
      let kt = Rc.add_kthread t.rc ~app:0 ~core:w.ex.Rc.exec_core in
      ignore (Kmod.activate kmod kt))
    workers;
  Array.iter
    (fun w ->
      Kmod.on_steal kmod ~core:w.ex.Rc.exec_core (fun ~duration ->
          Rc.freeze_for_steal t.rc w.ex ~duration))
    workers;
  Kmod.on_steal kmod ~core:dispatcher_core (fun ~duration ->
      t.disp_busy_until <- max t.disp_busy_until (now t + duration));
  Rc.start_watchdog t.rc ~bound:watchdog (fun ~bound -> watchdog_scan t ~bound);
  t

let create_app t ~name =
  let app = Rc.new_app t.rc ~name in
  Array.iter
    (fun w -> ignore (Rc.add_kthread t.rc ~app:app.App.id ~core:w.ex.Rc.exec_core))
    t.workers;
  app

let attach_be_app t app ~chunk ~workers =
  Rc.spawn_be_workers t.rc app ~chunk ~workers
    ~who:"Centralized.attach_be_app";
  (* Core allocation: the allocator arbitrates LC vs BE core ownership from
     here on.  BE starts at its burstable ceiling (all cores by default) and
     the policy reclaims cores as LC congestion appears. *)
  Rc.start_allocator t.rc ~cfg:t.alloc_cfg ~be:app
    ~on_event:(fun ev ->
      match ev.Allocator.action with
      | Allocator.Degraded ->
          Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Alloc_degrade
            ev.Allocator.app_name
      | Allocator.Recovered ->
          Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Alloc_recover
            ev.Allocator.app_name
      | Allocator.Granted | Allocator.Reclaimed | Allocator.Yielded -> ())
    ~set_allowance:(set_be_allowance t);
  Array.iter (fun w -> try_next t w) t.workers

let allocator t = t.rc.Rc.allocator

let pump t =
  let made_progress = ref true in
  while !made_progress do
    made_progress := false;
    if queue_length t > 0 then
      match
        Array.to_list t.workers
        |> List.find_opt (fun w ->
               w.ex.Rc.current = None && (not w.reserved)
               && not (Rc.unit_capped t.rc w.ex))
      with
      | Some w ->
          try_next t w;
          made_progress := true
      | None -> ()
  done;
  (* No free worker: under immediate reclaim, kick BE work off a core. *)
  if queue_length t > 0 && t.immediate then begin
    let want = queue_length t in
    let reclaimed = ref 0 in
    Array.iter
      (fun w -> if !reclaimed < want && preempt_be_worker t w then incr reclaimed)
      t.workers
  end

(* ---- deadlines ----------------------------------------------------------- *)

let kill t ?on_drop task = Rc.kill t.rc ?on_drop task

let submit t app ?(service = 0) ?(record = true) ?deadline ?on_drop ~name body =
  let task = Rc.admit t.rc app ~name ~arrival:(now t) ~service ~record body in
  t.rc.Rc.policy.task_init task;
  t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core ~reason:Sched_ops.Enq_new
    task;
  pump t;
  (match deadline with
  | Some d ->
      Rc.arm_deadline t.rc ?on_drop task ~deadline:d
        ~who:"Centralized"
  | None -> ());
  task

let wakeup t (task : Task.t) =
  Rc.awaken t.rc task ~place:(fun task ->
      ignore (t.rc.Rc.policy.task_wakeup ~waker_cpu:t.dispatcher_core task);
      pump t)

let preemptions t = t.rc.Rc.preempts
let dispatches t = t.dispatches
let be_preemptions t = t.rc.Rc.be_preempts
let watchdog_rescues t = t.rc.Rc.rescues
let failovers t = t.failovers
let rescue_detection t = t.rc.Rc.rescue_detect
let deadline_drops t = t.rc.Rc.deadline_drops
let set_trace t trace = t.rc.Rc.trace <- Some trace
let queue_depth_series t = t.rc.Rc.queue_depth
let worker_busy_ns t = Rc.total_busy_ns t.rc

(* Pull-based registration: every closure reads existing state at snapshot
   time, so attaching a registry cannot perturb the simulation. *)
let register_metrics t ?(labels = []) reg =
  let rc = t.rc in
  let c name help read = Registry.counter reg ~help ~labels name read in
  c "skyloft_central_dispatches_total" "Tasks assigned to workers" (fun () ->
      t.dispatches);
  c "skyloft_central_preemptions_total" "Quantum preemptions sent" (fun () ->
      rc.Rc.preempts);
  c "skyloft_central_be_preemptions_total" "Best-effort workers preempted"
    (fun () -> rc.Rc.be_preempts);
  c "skyloft_central_watchdog_rescues_total" "Stuck workers rescued" (fun () ->
      rc.Rc.rescues);
  c "skyloft_central_failovers_total" "Dispatcher failovers" (fun () ->
      t.failovers);
  c "skyloft_central_deadline_drops_total" "Tasks killed at their deadline"
    (fun () -> rc.Rc.deadline_drops);
  Registry.gauge reg ~labels "skyloft_central_be_allowance"
    ~help:"Workers the best-effort application may occupy" (fun () ->
      float_of_int rc.Rc.be_allowance);
  Registry.gauge reg ~labels "skyloft_central_queue_length"
    ~help:"LC tasks waiting at the dispatcher" (fun () ->
      float_of_int (queue_length t));
  Registry.histogram reg ~labels "skyloft_central_rescue_detection_ns"
    ~help:"Watchdog detection latency past the bound" rc.Rc.rescue_detect;
  Registry.series reg ~labels "skyloft_central_queue_depth"
    ~help:"LC policy queue length" rc.Rc.queue_depth;
  Rc.register_app_metrics rc ~labels reg
