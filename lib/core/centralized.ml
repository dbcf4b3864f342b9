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
   allocator and metrics all live in the core.

   With the mode switch on (the hybrid runtime) a monitor hands the
   workers from the dispatcher to per-core timers while the shared queue
   is deep: in [Percore] mode idle workers pick from the queue themselves
   and a delegated timer per worker preempts.  With it off no tick or
   monitor timer exists and the mode stays [Central]. *)

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

type mode = Central | Percore

type worker = {
  ex : Rc.exec;
  mutable gen : int;  (* assignment generation, guards stale events *)
  mutable reserved : bool;  (* an assignment is in flight *)
  mutable incoming : int;  (* app of the in-flight assignment; -1 if none *)
  mutable kick_pending : bool;  (* percore mode: a kick is scheduled *)
  qtimer : Engine.timer;  (* reusable quantum timer, re-armed per dispatch *)
  mutable qt_gen : int;  (* [gen] at the last quantum arm *)
}

type t = {
  rc : Rc.t;
  dispatcher_core : int;
  workers : worker array;
  by_core : (int, worker) Hashtbl.t;
  mech : mechanism;
  quantum : Time.t;
  tick_period : Time.t;  (* percore timer period; 0 with the switch off *)
  alloc_cfg : Allocator.config;
  immediate : bool;  (* preempt BE the instant an LC request cannot place *)
  mutable mode : mode;
  mutable mode_switches : int;
  mutable disp_busy_until : Time.t;
  mutable dispatches : int;
  mutable ticks : int;
  mutable failovers : int;
}

(* The monitor samples the queue every [check_period] and, with
   hysteresis, switches to percore past twice the worker count and back
   at half of it or below. *)
let check_period = Time.us 25

let now t = Rc.now t.rc
let worker_of t core = Hashtbl.find t.by_core core
let queue_length t = t.rc.Rc.probe.Sched_ops.queued ()

(* The dispatcher is a serial resource; [f] runs when it has spent [cost]
   on this operation. *)
let dispatcher_do t cost f =
  let start = max (now t) t.disp_busy_until in
  t.disp_busy_until <- start + cost;
  ignore (Engine.at t.rc.Rc.engine (start + cost) f)

(* Interrupt handling steals CPU time from the running segment (percore
   mode); the cost is charged to the victim as scheduling overhead. *)
let steal_time t w cost =
  match w.ex.Rc.current with
  | Some task when not (Eventq.is_null w.ex.Rc.completion) ->
      Engine.cancel t.rc.Rc.engine w.ex.Rc.completion;
      task.Task.segment_end <- task.Task.segment_end + cost;
      task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + cost;
      Rc.arm_completion t.rc w.ex task
  | _ -> ()

(* Where a preempted task goes: BE work back to the head of the BE queue,
   LC work to the dispatcher's queue. *)
let requeue t (task : Task.t) =
  if Rc.is_be t.rc task then Runqueue.push_head t.rc.Rc.be_queue task
  else
    t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
      ~reason:Sched_ops.Enq_preempted task

(* ---- worker-side execution ---------------------------------------------- *)

let rec start_on t w (task : Task.t) =
  w.reserved <- false;
  w.incoming <- -1;
  if task.Task.killed then begin
    (* Killed while the assignment was in flight (a deadline fired between
       dequeue and arrival).  The drop was accounted at kill time; discard
       exactly as [Rc.next_live] would have. *)
    task.Task.state <- Task.Exited;
    if not (Rc.is_be t.rc task) then t.rc.Rc.policy.task_terminate task;
    reschedule t w ~prev:None
  end
  else begin
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
  end

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

(* Percore-mode scheduling: the worker picks from the shared queue
   synchronously, no dispatcher in the path. *)
and schedule t w ~prev =
  if (not w.reserved) && w.ex.Rc.current = None && not (Rc.unit_capped t.rc w.ex)
  then begin
    let rc = t.rc in
    let pick () =
      let be_next =
        if Rc.be_occupancy rc < rc.Rc.be_allowance then
          Runqueue.pop_head rc.Rc.be_queue
        else None
      in
      match be_next with
      | Some task -> Some task
      | None -> (
          match rc.Rc.policy.task_dequeue ~cpu:w.ex.Rc.exec_core with
          | Some task -> Some task
          | None -> rc.Rc.policy.sched_balance ~cpu:w.ex.Rc.exec_core)
    in
    match Rc.next_live rc pick with
    | None -> ()
    | Some task ->
        let same = match prev with Some p -> p == task | None -> false in
        let cost =
          if same then 0
          else if task.Task.app = w.ex.Rc.active_app then begin
            rc.Rc.switches <- rc.Rc.switches + 1;
            Costs.uthread_yield_ns
          end
          else Rc.app_switch rc w.ex task
        in
        task.Task.wake_time <- None;
        ignore (Rc.begin_run rc w.ex task ~switch_cost:cost);
        w.gen <- w.gen + 1;
        Rc.run_after_switch rc w.ex task ~switch_cost:cost
  end

and reschedule t w ~prev =
  match t.mode with
  | Central -> try_next t w
  | Percore -> schedule t w ~prev

(* Preemption of the task currently on [w]; the caller already charged the
   delivery latency. *)
and do_preempt t w gen =
  if w.gen = gen then
    match Rc.depose t.rc w.ex ~overhead:t.mech.preempt_receive with
    | Some task ->
        requeue t task;
        reschedule t w ~prev:(Some task)
    | None -> ()

(* The preemption notification in flight from dispatcher to worker.  Its
   modeled delivery path is an engine delay, so injected IPI faults are
   consulted here: a dropped notification silently loses the preemption
   (the §3.2 lost-wakeup window — the watchdog is the backstop), a delayed
   one stretches the delivery latency. *)
and deliver_preempt t w gen =
  match
    Machine.fault_fate t.rc.Rc.machine ~core:w.ex.Rc.exec_core
      Vectors.uintr_notification
  with
  | Machine.Drop -> ()
  | Machine.Delay d ->
      ignore
        (Engine.after t.rc.Rc.engine (t.mech.preempt_delivery + d) (fun () ->
             do_preempt t w gen))
  | Machine.Deliver ->
      ignore
        (Engine.after t.rc.Rc.engine t.mech.preempt_delivery (fun () ->
             do_preempt t w gen))

and quantum_check t w (task : Task.t) gen =
  let still_running =
    match w.ex.Rc.current with
    | Some cur -> cur == task && w.gen = gen
    | None -> false
  in
  if still_running then begin
    t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
    dispatcher_do t t.mech.preempt_send (fun () -> deliver_preempt t w gen)
  end

(* The quantum timer's stable callback: [quantum_check] compares [qt_gen]
   (recorded at arm time) against the live generation, so a dispatch that
   already ended is left alone. *)
let quantum_fire t w =
  match w.ex.Rc.current with
  | Some task -> quantum_check t w task w.qt_gen
  | None -> ()

(* Percore-mode preemption: synchronous, the caller already charged the
   receive cost to the victim. *)
let preempt_now t w =
  match Rc.depose t.rc w.ex ~overhead:0 with
  | Some task ->
      if Rc.is_be t.rc task then t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1
      else t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
      requeue t task;
      schedule t w ~prev:(Some task)
  | None -> ()

(* Preempt [task], running on [w], to reclaim the core for LC work or
   for the broker.  In central mode it rides the same send/deliver path as quantum
   preemption, so IPI faults apply; in percore mode it is a synchronous
   local preemption with the receive cost charged. *)
let preempt_running t w (task : Task.t) =
  match t.mode with
  | Central ->
      let gen = w.gen in
      if Rc.is_be t.rc task then t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1
      else t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
      dispatcher_do t t.mech.preempt_send (fun () -> deliver_preempt t w gen)
  | Percore ->
      steal_time t w (Costs.uipi_receive_ns ~cross_numa:false);
      preempt_now t w

let preempt_be_worker t w =
  match w.ex.Rc.current with
  | Some task
    when Rc.is_be t.rc task && not (Eventq.is_null w.ex.Rc.completion) ->
      preempt_running t w task;
      true
  | _ -> false

(* ---- kicks and the shared-queue poke (percore mode) ---------------------- *)

let kick t w =
  if w.ex.Rc.current = None && (not w.kick_pending) && not w.reserved then begin
    w.kick_pending <- true;
    let delay = max 0 (w.ex.Rc.stolen_until - now t) in
    ignore
      (Engine.after t.rc.Rc.engine delay (fun () ->
           w.kick_pending <- false;
           if w.ex.Rc.current = None then reschedule t w ~prev:None))
  end

(* Give [w] a chance at queued work: the dispatcher assigns it some
   (central), or an idle [w] is kicked to pick for itself (percore). *)
let redrive t w =
  match t.mode with
  | Central -> try_next t w
  | Percore -> kick t w

(* One pass in worker order suffices: [try_next] on a free worker either
   reserves it or drains the queue, and frees no other worker. *)
let pump t =
  let i = ref 0 in
  while !i < Array.length t.workers && queue_length t > 0 do
    try_next t t.workers.(!i);
    incr i
  done;
  (* No free worker: under immediate reclaim, kick BE work off a core. *)
  if t.immediate && queue_length t > 0 then begin
    let want = queue_length t in
    let reclaimed = ref 0 in
    Array.iter
      (fun w -> if !reclaimed < want && preempt_be_worker t w then incr reclaimed)
      t.workers
  end

(* New work arrived in the shared queue: the mode decides who notices. *)
let poke t =
  match t.mode with
  | Central -> pump t
  | Percore -> (
      match Sched_ops.pick_idle (Rc.view t.rc) with
      | Some core -> kick t (worker_of t core)
      | None -> ())

(* ---- the mode monitor and percore timer ticks ---------------------------- *)

let flip t m =
  t.mode <- m;
  t.mode_switches <- t.mode_switches + 1;
  Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Mode_switch
    (match m with Central -> "central" | Percore -> "percore");
  match m with
  | Percore ->
      (* Idle workers now self-schedule; wake them up. *)
      Array.iter (fun w -> kick t w) t.workers
  | Central -> pump t

let check_mode t =
  let depth = queue_length t and n = Array.length t.workers in
  match t.mode with
  | Central when depth > 2 * n -> flip t Percore
  | Percore when depth <= n / 2 -> flip t Central
  | Central | Percore -> ()

(* One delegated timer per worker core.  The timer only acts in percore
   mode; in central mode preemption is the dispatcher's quantum timer.  A
   task that started under one mode and survived a flip is preempted by
   whichever mechanism the current mode provides (plus the watchdog as the
   backstop), so no run can outlive both. *)
let on_tick t w =
  if t.mode = Percore && now t >= w.ex.Rc.stolen_until then begin
    t.ticks <- t.ticks + 1;
    steal_time t w (Costs.user_timer_receive_ns + Costs.senduipi_sn_ns);
    match w.ex.Rc.current with
    | Some _
      when (not (Eventq.is_null w.ex.Rc.completion))
           && Rc.unit_capped t.rc w.ex ->
        (* Broker-capped worker: the tick only enforces the cap (backstop
           for a run that slipped in around a shrink). *)
        preempt_now t w
    | Some task when not (Eventq.is_null w.ex.Rc.completion) ->
        if Rc.is_be t.rc task then begin
          if Rc.be_occupancy t.rc > t.rc.Rc.be_allowance then preempt_now t w
        end
        else if
          (* The policy gets first say; single-queue policies written for
             the dispatcher leave ticks alone, so the quantum is enforced
             here — percore mode timeshares exactly like central mode,
             just from the local timer instead of a dispatcher IPI. *)
          t.rc.Rc.policy.sched_timer_tick ~cpu:w.ex.Rc.exec_core task
          || (t.quantum > 0 && now t - task.Task.run_start >= t.quantum)
        then preempt_now t w
    | _ -> if not (Rc.unit_capped t.rc w.ex) then kick t w
  end

(* ---- watchdog: dispatcher failover + stuck-worker rescue ----------------- *)

let rescue_worker t w ~late =
  Rc.rescued t.rc w.ex ~late;
  do_preempt t w w.gen

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
            (* A run up to the quantum, or a tick period under percore
               mode, is legitimate; a full bound past the expected
               preemption point means the preemption was lost. *)
            let allowed =
              bound
              + if Rc.is_be t.rc task then 0
                else max (max t.quantum 0) t.tick_period
            in
            let overrun = now t - task.Task.run_start - allowed in
            if overrun > 0 then rescue_worker t w ~late:overrun
        | _ -> ())
    t.workers

(* ---- core allocation ----------------------------------------------------- *)

(* Change how many workers BE may occupy.  Shrinking preempts the excess
   BE workers with user IPIs; the next LC dispatch on those cores goes
   through [Kmod.switch_to], charging the §5.4 inter-application switch
   cost.  Growing redrives idle workers so they pick up BE work (again
   paying the switch cost at dispatch). *)
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
  else if n > old then Array.iter (redrive t) t.workers

(* Preempt whatever runs on [w] — LC or BE — because the broker capped the
   worker out; the scheduling gate keeps the worker empty afterwards. *)
let preempt_capped_worker t w =
  match w.ex.Rc.current with
  | Some task when not (Eventq.is_null w.ex.Rc.completion) ->
      preempt_running t w task
  | _ -> ()

(* The machine-level broker's reclaim/grant muscle: how many workers this
   runtime may occupy at all ({!set_be_allowance} one level up; allowed
   workers are always the creation-order prefix).  Shrinking preempts the
   newly capped workers; an assignment already in flight toward one still
   runs its segment there — enforcement happens at the next scheduling
   point, exactly like a quantum.  Growing redrives the workers handed
   back. *)
let set_core_allowance t n =
  let old = t.rc.Rc.core_allowance in
  Rc.set_core_allowance t.rc n;
  let n = t.rc.Rc.core_allowance in
  if n < old then
    Array.iter
      (fun w -> if Rc.unit_capped t.rc w.ex then preempt_capped_worker t w)
      t.workers
  else if n > old then
    Array.iter
      (fun w -> if not (Rc.unit_capped t.rc w.ex) then redrive t w)
      t.workers

let congestion t = Rc.congestion t.rc

(* ---- construction -------------------------------------------------------- *)

let create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ?(mechanism = skyloft_mechanism) ?alloc ?(immediate = false) ?watchdog
    ?percore_hz ctor =
  if worker_cores = [] then invalid_arg "Centralized.create: no worker cores";
  if List.mem dispatcher_core worker_cores then
    invalid_arg "Centralized.create: dispatcher core cannot also be a worker";
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg "Centralized.create: watchdog bound must be positive"
  | Some _ | None -> ());
  let tick_period =
    match percore_hz with
    | None -> 0
    | Some hz when hz > 0 -> max 1 (1_000_000_000 / hz)
    | Some _ -> invalid_arg "Centralized.create: percore_hz must be positive"
  in
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
             kick_pending = false;
             qtimer = Engine.timer engine ignore;
             qt_gen = 0;
           })
         worker_cores)
  in
  let t =
    {
      rc =
        Rc.create machine kmod ~record_wakeups:false
          ~trace_app_switches:(tick_period > 0);
      dispatcher_core;
      workers;
      by_core = Hashtbl.create 16;
      mech = mechanism;
      quantum;
      tick_period;
      alloc_cfg = alloc;
      immediate;
      mode = Central;
      mode_switches = 0;
      disp_busy_until = 0;
      dispatches = 0;
      ticks = 0;
      failovers = 0;
    }
  in
  Array.iter (fun w -> Hashtbl.replace t.by_core w.ex.Rc.exec_core w) workers;
  Array.iter (fun w -> Engine.set_callback w.qtimer (fun () -> quantum_fire t w)) workers;
  Rc.install_dispatch t.rc
    {
      Rc.d_units = Array.map (fun w -> w.ex) workers;
      d_enqueue_cpu = (fun _ -> t.dispatcher_core);
      d_incoming_app = (fun ex -> (worker_of t ex.Rc.exec_core).incoming);
      d_released =
        (fun ex ->
          let w = worker_of t ex.Rc.exec_core in
          w.gen <- w.gen + 1);
      d_reschedule =
        (fun ex ~prev -> reschedule t (worker_of t ex.Rc.exec_core) ~prev);
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
  (* The mode switch: per-core delegated timers (no-ops outside percore
     mode, so central mode pays no tick overhead) and the depth monitor. *)
  if tick_period > 0 then begin
    Array.iter
      (fun w ->
        ignore
          (Engine.every t.rc.Rc.engine ~period:tick_period (fun () ->
               on_tick t w;
               true)))
      workers;
    ignore
      (Engine.every t.rc.Rc.engine ~period:check_period (fun () ->
           check_mode t;
           true))
  end;
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
  Array.iter (fun w -> reschedule t w ~prev:None) t.workers

let allocator t = t.rc.Rc.allocator

(* ---- submission, deadlines, wakeups -------------------------------------- *)

let submit t app ?(service = 0) ?(record = true) ?deadline ?on_drop ~name body =
  let task = Rc.admit t.rc app ~name ~arrival:(now t) ~service ~record body in
  t.rc.Rc.policy.task_init task;
  t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core ~reason:Sched_ops.Enq_new
    task;
  poke t;
  (match deadline with
  | Some d ->
      Rc.arm_deadline t.rc ?on_drop task ~deadline:d
        ~who:"Centralized"
  | None -> ());
  task

let wakeup t (task : Task.t) =
  Rc.awaken t.rc task ~place:(fun task ->
      ignore (t.rc.Rc.policy.task_wakeup ~waker_cpu:t.dispatcher_core task);
      poke t)

let mode t = t.mode
let mode_switches t = t.mode_switches
let timer_ticks t = t.ticks
let preemptions t = t.rc.Rc.preempts
let dispatches t = t.dispatches
let be_preemptions t = t.rc.Rc.be_preempts
let watchdog_rescues t = t.rc.Rc.rescues
let failovers t = t.failovers
let rescue_detection t = t.rc.Rc.rescue_detect
let deadline_drops t = t.rc.Rc.deadline_drops
let set_trace t trace = t.rc.Rc.trace <- Some trace
let queue_depth_series t = t.rc.Rc.queue_depth

(* Pull-based registration: every closure reads existing state at snapshot
   time, so attaching a registry cannot perturb the simulation.  The mode
   switch renames the family to [skyloft_hybrid_*] and adds its own. *)
let register_metrics t ?(labels = []) reg =
  let rc = t.rc in
  let hybrid = t.tick_period > 0 in
  let name s = (if hybrid then "skyloft_hybrid_" else "skyloft_central_") ^ s in
  let c s help read = Registry.counter reg ~help ~labels (name s) read in
  let switch_only f = if hybrid then f () in
  c "dispatches_total"
    (if hybrid then "Central-mode dispatcher assignments"
     else "Tasks assigned to workers")
    (fun () -> t.dispatches);
  switch_only (fun () ->
      c "mode_switches_total" "Dispatch-mode transitions" (fun () ->
          t.mode_switches));
  c "preemptions_total"
    (if hybrid then "LC preemptions (both mechanisms)"
     else "Quantum preemptions sent")
    (fun () -> rc.Rc.preempts);
  c "be_preemptions_total" "Best-effort workers preempted" (fun () ->
      rc.Rc.be_preempts);
  switch_only (fun () ->
      c "timer_ticks_total" "Percore-mode timer interrupts handled" (fun () ->
          t.ticks));
  c "watchdog_rescues_total" "Stuck workers rescued" (fun () -> rc.Rc.rescues);
  c "failovers_total" "Dispatcher failovers" (fun () -> t.failovers);
  c "deadline_drops_total" "Tasks killed at their deadline" (fun () ->
      rc.Rc.deadline_drops);
  switch_only (fun () ->
      Registry.gauge reg ~labels (name "mode")
        ~help:"Current dispatch mode (0 = central, 1 = percore)" (fun () ->
          match t.mode with Central -> 0.0 | Percore -> 1.0));
  Registry.gauge reg ~labels (name "be_allowance")
    ~help:"Workers the best-effort application may occupy" (fun () ->
      float_of_int rc.Rc.be_allowance);
  Registry.gauge reg ~labels (name "queue_length")
    ~help:
      (if hybrid then "LC tasks waiting in the shared queue"
       else "LC tasks waiting at the dispatcher")
    (fun () -> float_of_int (queue_length t));
  Registry.histogram reg ~labels (name "rescue_detection_ns")
    ~help:"Watchdog detection latency past the bound" rc.Rc.rescue_detect;
  Registry.series reg ~labels (name "queue_depth")
    ~help:"LC policy queue length" rc.Rc.queue_depth;
  Rc.register_app_metrics rc ~labels reg
