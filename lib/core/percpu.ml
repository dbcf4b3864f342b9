module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module Rc = Runtime_core

(* The per-CPU runtime is Runtime_core plus its DISPATCH substrate:
   synchronous per-core scheduling driven by delegated timer interrupts
   (Listing 1), kicks for idle cores, Shenango-style parking, and the
   per-core watchdog.  Everything else — lifecycle, accounting, BE
   occupancy, deadlines, allocator, metrics — lives in the core.

   {!Worksteal} is this runtime with a steal-half policy: the policy
   reports its steal costs and failed scans through {!charge_steal} and
   {!steal_failed}, and both per-core fields stay 0 under every other
   policy. *)

(* Consecutive failed steal scans before an idle core parks without
   grace (the steal-storm brake). *)
let storm_park_after = 2

type cpu = {
  ex : Rc.exec;
  mutable kick_pending : bool;
  mutable parked : bool;  (* yielded to the kernel while idle (Shenango) *)
  mutable idle_gen : int;  (* invalidates stale park timers *)
  mutable last_sched : Time.t;  (* last scheduling point (watchdog) *)
  mutable fail_streak : int;  (* consecutive failed steal scans *)
  mutable pending_steal_cost : Time.t;  (* charged on the next dispatch *)
}

type t = {
  name : string;  (* "Percpu", or "Worksteal" for the steal-half flavour *)
  rc : Rc.t;
  cores : int array;
  cpus : cpu array;
  by_core : (int, cpu) Hashtbl.t;
  timer_hz : int;
  preemption : bool;
  park : (Time.t * Time.t) option;  (* (idle_after, resume_cost) *)
  mutable ticks : int;
  mutable rr_spawn : int;  (* round-robin spawn placement cursor *)
  mutable parks : int;
  mutable unparks : int;
  uvec_handlers : (int, int -> unit) Hashtbl.t;
      (* user-delegated device interrupts: uvec -> handler (gets core id) *)
}

let now t = Rc.now t.rc

let cpu_of t core =
  match Hashtbl.find t.by_core core with
  | cpu -> cpu
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "%s: core %d is not managed by this runtime" t.name
           core)

let charge_steal t ~core cost =
  let cpu = cpu_of t core in
  cpu.pending_steal_cost <- cpu.pending_steal_cost + cost

let steal_failed t ~core =
  let cpu = cpu_of t core in
  cpu.fail_streak <- cpu.fail_streak + 1

let is_idle t ~core =
  match Hashtbl.find_opt t.by_core core with
  | Some cpu -> cpu.ex.Rc.current = None && not (Rc.unit_capped t.rc cpu.ex)
  | None -> false

let view t = Rc.view t.rc

(* ---- dispatch & the main loop ------------------------------------------ *)

let park_now t cpu =
  if not cpu.parked then begin
    cpu.parked <- true;
    t.parks <- t.parks + 1
  end

let rec schedule t cpu ~prev =
  let rc = t.rc in
  if Rc.unit_capped rc cpu.ex then begin
    (* The broker took this core: it may not pick anything up.  Queued
       work is recovered by allowed cores' steals and kicks. *)
    cpu.ex.Rc.current <- None;
    cpu.idle_gen <- cpu.idle_gen + 1
  end
  else
  let pick () =
    (* Cores inside the allocator's current BE grant belong to BE — they
       dispatch BE work ahead of LC so a guaranteed core cannot be starved
       by LC backlog.  LC congestion claws cores back through the
       allocator shrinking the allowance, not by out-queueing BE here. *)
    let be_next =
      if Rc.be_occupancy rc < rc.Rc.be_allowance then
        Runqueue.pop_head rc.Rc.be_queue
      else None
    in
    match be_next with
    | Some task -> Some task
    | None -> (
        match rc.Rc.policy.task_dequeue ~cpu:cpu.ex.Rc.exec_core with
        | Some task -> Some task
        | None -> rc.Rc.policy.sched_balance ~cpu:cpu.ex.Rc.exec_core)
  in
  match Rc.next_live rc pick with
  | None ->
      cpu.ex.Rc.current <- None;
      cpu.idle_gen <- cpu.idle_gen + 1;
      (* Shenango-style runtimes return idle cores to the kernel; waking a
         parked core later costs a kernel wakeup. *)
      (match t.park with
      | Some _ when cpu.fail_streak >= storm_park_after ->
          (* Steal scans keep coming up empty: park now rather than
             respin the scan on every kick. *)
          park_now t cpu
      | Some (idle_after, _) ->
          let gen = cpu.idle_gen in
          ignore
            (Engine.after rc.Rc.engine idle_after (fun () ->
                 if cpu.ex.Rc.current = None && cpu.idle_gen = gen then
                   park_now t cpu))
      | None -> ())
  | Some task ->
      let unpark_cost =
        if cpu.parked then begin
          cpu.parked <- false;
          t.unparks <- t.unparks + 1;
          match t.park with Some (_, resume_cost) -> resume_cost | None -> 0
        end
        else 0
      in
      cpu.fail_streak <- 0;
      let steal_cost = cpu.pending_steal_cost in
      cpu.pending_steal_cost <- 0;
      let same = match prev with Some p -> p == task | None -> false in
      let cost =
        if same then 0
        else if task.Task.app = cpu.ex.Rc.active_app then begin
          rc.Rc.switches <- rc.Rc.switches + 1;
          Costs.uthread_yield_ns
        end
        else Rc.app_switch rc cpu.ex task
      in
      dispatch t cpu task ~switch_cost:(cost + unpark_cost + steal_cost)

and dispatch t cpu (task : Task.t) ~switch_cost =
  cpu.last_sched <- now t;
  ignore (Rc.begin_run t.rc cpu.ex task ~switch_cost);
  Rc.run_after_switch t.rc cpu.ex task ~switch_cost

(* ---- preemption --------------------------------------------------------- *)

let preempt_current t cpu =
  match Rc.depose t.rc cpu.ex ~overhead:0 with
  | Some task ->
      t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
      if Rc.is_be t.rc task then begin
        t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
        Runqueue.push_head t.rc.Rc.be_queue task
      end
      else
        t.rc.Rc.policy.task_enqueue ~cpu:cpu.ex.Rc.exec_core
          ~reason:Sched_ops.Enq_preempted task;
      schedule t cpu ~prev:(Some task)
  | None -> ()

(* Interrupt handling steals CPU time from the running segment.  The cost
   is attributed to the victim task as scheduling overhead — or as fault
   stall when [stall] (host-kernel core steals, where the core vanishes
   rather than doing scheduling work). *)
let steal_time ?(stall = false) t cpu cost =
  match cpu.ex.Rc.current with
  | Some task when not (Eventq.is_null cpu.ex.Rc.completion) ->
      Engine.cancel t.rc.Rc.engine cpu.ex.Rc.completion;
      task.Task.segment_end <- task.Task.segment_end + cost;
      if stall then task.Task.obs_stall_ns <- task.Task.obs_stall_ns + cost
      else task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + cost;
      Rc.arm_completion t.rc cpu.ex task
  | _ -> ()

let kick t cpu =
  if cpu.ex.Rc.current = None && not cpu.kick_pending then begin
    cpu.kick_pending <- true;
    (* A stolen core cannot react until the host kernel hands it back. *)
    let delay = max 0 (cpu.ex.Rc.stolen_until - now t) in
    ignore
      (Engine.after t.rc.Rc.engine delay (fun () ->
           cpu.kick_pending <- false;
           if cpu.ex.Rc.current = None then schedule t cpu ~prev:None))
  end

let kick_core t core = kick t (cpu_of t core)

(* After enqueueing work, make sure some idle core will notice it. *)
let kick_some_idle t =
  match Sched_ops.pick_idle (view t) with Some core -> kick_core t core | None -> ()

(* Evict whatever runs on a broker-capped core: receive cost, depose, then
   requeue on an allowed core's queue — never the capped core's own, since
   with the core gone nothing local would drain it — and wake an allowed
   idle core to pick the refugee up. *)
let evict_capped t cpu =
  match cpu.ex.Rc.current with
  | Some _ when not (Eventq.is_null cpu.ex.Rc.completion) ->
      steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
      (match Rc.depose t.rc cpu.ex ~overhead:0 with
      | Some task ->
          t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
          if Rc.is_be t.rc task then begin
            t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
            Runqueue.push_head t.rc.Rc.be_queue task
          end
          else
            t.rc.Rc.policy.task_enqueue ~cpu:t.cores.(0)
              ~reason:Sched_ops.Enq_preempted task;
          schedule t cpu ~prev:(Some task);
          kick_some_idle t
      | None -> ())
  | _ -> ()

(* ---- the global user-interrupt handler (Listing 1) ---------------------- *)

(* Timer-tick scheduling decision.  BE tasks live outside the LC policy:
   the tick preempts them when the allowance shrank below the cores BE
   currently occupies.  LC congestion is not checked directly here — the
   allocator reacts to it within one check interval by shrinking the
   allowance (and never below the BE app's guaranteed cores), so the
   allowance is the single arbiter of BE occupancy. *)
let tick_decision t cpu =
  cpu.last_sched <- now t;
  if Rc.unit_capped t.rc cpu.ex then
    (* Broker-capped core: the tick only enforces the cap (backstop for a
       task that slipped in around a shrink); it never kicks or picks. *)
    evict_capped t cpu
  else
    match cpu.ex.Rc.current with
  | Some task when not (Eventq.is_null cpu.ex.Rc.completion) ->
      if Rc.is_be t.rc task then begin
        if Rc.be_occupancy t.rc > t.rc.Rc.be_allowance then preempt_current t cpu
      end
      else if t.rc.Rc.policy.sched_timer_tick ~cpu:cpu.ex.Rc.exec_core task then
        preempt_current t cpu
  | _ -> kick t cpu

let on_tick t cpu =
  t.ticks <- t.ticks + 1;
  steal_time t cpu (Costs.user_timer_receive_ns + Costs.senduipi_sn_ns);
  tick_decision t cpu

let on_preempt_ipi t cpu =
  steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
  tick_decision t cpu

let uintr_handler t cpu ctx ~uvec =
  if uvec = Vectors.uvec_timer then begin
    (* Reset UPID.PIR so the next hardware timer interrupt is recognised
       (Listing 1 line 5) — only on a timer-delegated context (SN set). *)
    if Machine.uintr_sn ctx then
      Machine.senduipi t.rc.Rc.machine ~src_core:cpu.ex.Rc.exec_core ctx
        ~uvec:Vectors.uvec_timer;
    on_tick t cpu
  end
  else if uvec = Vectors.uvec_preempt then on_preempt_ipi t cpu
  else
    (* Delegated peripheral interrupt (§6): charge the receive overhead and
       run the registered driver handler in user space. *)
    match Hashtbl.find_opt t.uvec_handlers uvec with
    | Some handler ->
        steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
        handler cpu.ex.Rc.exec_core
    | None -> ()

(* ---- watchdog recovery --------------------------------------------------- *)

(* No scheduling point on this core within the bound: the timer delegation
   was lost (dropped notification, PIR never re-primed) or the current task
   is stuck.  The rescue is what the daemon would do from a healthy core —
   a rescue user IPI (receive cost charged), the LAPIC timer re-armed and
   the PIR re-primed so future ticks are recognised again, then a forced
   preemption so queued work gets the core. *)
let rescue t cpu ~bound =
  Rc.rescued t.rc cpu.ex ~late:(max 0 (now t - cpu.last_sched - bound));
  steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
  if t.preemption then begin
    ignore
      (Kmod.timer_set_hz t.rc.Rc.kmod ~core:cpu.ex.Rc.exec_core ~hz:t.timer_hz);
    match Machine.uintr_installed t.rc.Rc.machine ~core:cpu.ex.Rc.exec_core with
    | Some ctx when Machine.uintr_sn ctx ->
        Machine.senduipi t.rc.Rc.machine ~src_core:cpu.ex.Rc.exec_core ctx
          ~uvec:Vectors.uvec_timer
    | Some _ | None -> ()
  end;
  preempt_current t cpu;
  cpu.last_sched <- now t

let watchdog_scan t ~bound =
  Array.iter
    (fun cpu ->
      match cpu.ex.Rc.current with
      | Some _
        when now t >= cpu.ex.Rc.stolen_until
             && (not
                   (Machine.interrupts_masked
                      (Machine.core t.rc.Rc.machine cpu.ex.Rc.exec_core)))
             && now t - cpu.last_sched > bound ->
          rescue t cpu ~bound
      | _ -> ())
    t.cpus

(* The host kernel stole this core: the running segment makes no progress
   for the outage, and wake-up kicks defer until hand-back.  Deferred
   interrupt vectors replay at unmask (the {!Machine} mask model), so a
   queued tick re-preempts promptly once the core returns. *)
let on_core_steal t cpu ~duration =
  cpu.ex.Rc.stolen_until <- max cpu.ex.Rc.stolen_until (now t + duration);
  steal_time ~stall:true t cpu duration;
  cpu.last_sched <- max cpu.last_sched cpu.ex.Rc.stolen_until

(* ---- construction -------------------------------------------------------- *)

let register_kthread t app_id core =
  let kt = Rc.add_kthread t.rc ~app:app_id ~core in
  let cpu = cpu_of t core in
  let ctx = Kmod.uintr_ctx kt in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification
    (uintr_handler t cpu ctx);
  if t.preemption then begin
    (* §3.2 timer delegation: UINV <- timer vector, SN <- 1 (kernel module),
       then prime the PIR with a suppressed self-SENDUIPI so the first
       hardware timer interrupt is recognised in user space. *)
    Kmod.timer_enable t.rc.Rc.kmod kt;
    Machine.senduipi t.rc.Rc.machine ~src_core:core ctx ~uvec:Vectors.uvec_timer
  end;
  kt

let make ~name machine kmod ~cores ~timer_hz ~preemption ~park ~watchdog ctor =
  let who = name ^ ".create" in
  if cores = [] then invalid_arg (who ^ ": no cores");
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg (who ^ ": watchdog bound must be positive")
  | Some _ | None -> ());
  let cores_arr = Array.of_list cores in
  let cpus =
    Array.map
      (fun core_id ->
        {
          ex = Rc.make_exec core_id;
          kick_pending = false;
          parked = false;
          idle_gen = 0;
          last_sched = 0;
          fail_streak = 0;
          pending_steal_cost = 0;
        })
      cores_arr
  in
  let t =
    {
      name;
      rc = Rc.create machine kmod ~record_wakeups:true ~trace_app_switches:true;
      cores = cores_arr;
      cpus;
      by_core = Hashtbl.create 64;
      timer_hz;
      preemption;
      park;
      ticks = 0;
      rr_spawn = 0;
      parks = 0;
      unparks = 0;
      uvec_handlers = Hashtbl.create 8;
    }
  in
  Array.iter (fun cpu -> Hashtbl.replace t.by_core cpu.ex.Rc.exec_core cpu) cpus;
  Rc.install_dispatch t.rc
    {
      Rc.d_units = Array.map (fun cpu -> cpu.ex) cpus;
      d_enqueue_cpu = (fun ex -> ex.Rc.exec_core);
      d_incoming_app = (fun _ -> -1);
      d_released = (fun _ -> ());
      d_reschedule =
        (fun ex ~prev -> schedule t (cpu_of t ex.Rc.exec_core) ~prev);
    };
  Rc.install_policy t.rc (ctor t);
  (* The daemon occupies every isolated core first (§4.1). *)
  Array.iter
    (fun core ->
      let kt = register_kthread t 0 core in
      ignore (Kmod.activate kmod kt))
    cores_arr;
  if preemption then
    Array.iter
      (fun core -> ignore (Kmod.timer_set_hz kmod ~core ~hz:timer_hz))
      cores_arr;
  (* React to host-kernel core steals (lib/fault's imperfect isolation). *)
  Array.iter
    (fun cpu ->
      Kmod.on_steal kmod ~core:cpu.ex.Rc.exec_core (fun ~duration ->
          on_core_steal t cpu ~duration))
    t.cpus;
  Rc.start_watchdog t.rc ~bound:watchdog (fun ~bound -> watchdog_scan t ~bound);
  t

let create machine kmod ~cores ?(timer_hz = 100_000) ?(preemption = true) ?park
    ?watchdog ctor =
  make ~name:"Percpu" machine kmod ~cores ~timer_hz ~preemption ~park ~watchdog
    (fun _ -> ctor)

let create_app t ~name =
  let app = Rc.new_app t.rc ~name in
  Array.iter (fun core -> ignore (register_kthread t app.App.id core)) t.cores;
  app

(* ---- core allocation ----------------------------------------------------- *)

(* Change how many cores BE may occupy.  Shrinking preempts the excess BE
   cores as if the daemon sent them preemption user IPIs (receive cost
   charged, then the next LC dispatch pays {!Kmod.switch_to}).  Growing
   kicks idle cores so they pick BE work up. *)
let set_be_allowance t n =
  let old = t.rc.Rc.be_allowance in
  t.rc.Rc.be_allowance <- n;
  if n < old then begin
    let excess = ref (Rc.be_occupancy t.rc - n) in
    Array.iter
      (fun cpu ->
        if !excess > 0 then
          match cpu.ex.Rc.current with
          | Some task
            when Rc.is_be t.rc task
                 && not (Eventq.is_null cpu.ex.Rc.completion) ->
              steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
              preempt_current t cpu;
              decr excess
          | _ -> ())
      t.cpus
  end
  else if n > old && not (Runqueue.is_empty t.rc.Rc.be_queue) then
    Array.iter (fun cpu -> if cpu.ex.Rc.current = None then kick t cpu) t.cpus

(* Change how many cores this runtime may occupy at all — the machine-level
   broker's reclaim/grant muscle, mirroring {!set_be_allowance} one level
   up.  Shrinking evicts the newly capped units (receive cost charged,
   refugees requeued on an allowed core); growing kicks the units the
   broker just handed back. *)
let set_core_allowance t n =
  let n = max 0 n in
  let old = t.rc.Rc.core_allowance in
  Rc.set_core_allowance t.rc n;
  if n < old then
    Array.iter
      (fun cpu -> if Rc.unit_capped t.rc cpu.ex then evict_capped t cpu)
      t.cpus
  else if n > old then
    Array.iter
      (fun cpu ->
        if (not (Rc.unit_capped t.rc cpu.ex)) && cpu.ex.Rc.current = None then
          kick t cpu)
      t.cpus

let congestion t = Rc.congestion t.rc

let attach_be_app t ?alloc app ~chunk ~workers =
  Rc.spawn_be_workers t.rc app ~chunk ~workers
    ~who:(t.name ^ ".attach_be_app");
  let cfg = match alloc with Some a -> a | None -> Allocator.default_config () in
  let on_event (ev : Allocator.event) =
    let kind =
      match ev.Allocator.action with
      | Allocator.Granted -> Trace.Core_grant
      | Allocator.Reclaimed | Allocator.Yielded -> Trace.Core_reclaim
      | Allocator.Degraded -> Trace.Alloc_degrade
      | Allocator.Recovered -> Trace.Alloc_recover
    in
    Rc.trace_instant t.rc ~core:t.cores.(0) kind
      (Printf.sprintf "%s=%d" ev.Allocator.app_name ev.Allocator.granted)
  in
  Rc.start_allocator t.rc ~cfg ~be:app ~on_event
    ~set_allowance:(set_be_allowance t);
  Array.iter (fun cpu -> if cpu.ex.Rc.current = None then kick t cpu) t.cpus

let allocator t = t.rc.Rc.allocator
let be_preemptions t = t.rc.Rc.be_preempts

let pick_spawn_cpu t =
  match Sched_ops.pick_idle (view t) with
  | Some core -> core
  | None ->
      let core = t.cores.(t.rr_spawn mod Array.length t.cores) in
      t.rr_spawn <- t.rr_spawn + 1;
      core

(* ---- spawning, deadlines ------------------------------------------------- *)

let spawn t app ~name ?cpu ?arrival ?service ?(record = true) ?deadline ?on_drop
    body =
  let arrival = match arrival with Some a -> a | None -> now t in
  let service = match service with Some s -> s | None -> 0 in
  (match cpu with Some c -> ignore (cpu_of t c) | None -> ());
  let task = Rc.admit t.rc app ~name ~arrival ~service ~record body in
  let target = match cpu with Some c -> c | None -> pick_spawn_cpu t in
  task.Task.last_core <- target;
  t.rc.Rc.policy.task_init task;
  t.rc.Rc.policy.task_enqueue ~cpu:target ~reason:Sched_ops.Enq_new task;
  if is_idle t ~core:target then kick_core t target else kick_some_idle t;
  (match deadline with
  | Some d ->
      Rc.arm_deadline t.rc ?on_drop task ~deadline:d ~who:t.name
  | None -> ());
  task

(* §6 "Blocking events": the running task hits a page fault (or a blocking
   syscall).  The userfaultfd-style monitor blocks the task and lets the
   scheduler run other work — possibly another application's — on the core
   for the fault's duration, without violating the Single Binding Rule
   (the kthread stays bound; only the user thread sleeps). *)
let rec fault_current t ~core ~duration =
  if duration <= 0 then
    invalid_arg (t.name ^ ".fault_current: duration must be positive");
  let cpu = cpu_of t core in
  match cpu.ex.Rc.current with
  | Some task when not (Eventq.is_null cpu.ex.Rc.completion) ->
      Engine.cancel t.rc.Rc.engine cpu.ex.Rc.completion;
      cpu.ex.Rc.completion <- Eventq.null;
      let remaining = max 0 (task.Task.segment_end - now t) in
      task.Task.body <- Coro.Compute (remaining, task.Task.cont);
      task.Task.state <- Task.Blocked;
      Rc.account t.rc cpu.ex;
      cpu.ex.Rc.current <- None;
      task.Task.obs_block_at <- now t;
      (* BE tasks live outside the LC policy's runqueues; telling the
         policy about one would leak it into LC dispatch at wakeup. *)
      if not (Rc.is_be t.rc task) then t.rc.Rc.policy.task_block ~cpu:core task;
      Rc.trace_instant t.rc ~core Trace.Fault task.Task.name;
      ignore (Engine.after t.rc.Rc.engine duration (fun () -> wakeup_task t task));
      schedule t cpu ~prev:(Some task);
      true
  | _ -> false

and wakeup_task t ?waker_cpu task =
  Rc.awaken t.rc task ~place:(fun (task : Task.t) ->
      if Rc.is_be t.rc task then begin
        (* Back to the BE queue, never the LC policy's runqueues. *)
        Runqueue.push_tail t.rc.Rc.be_queue task;
        if is_idle t ~core:task.Task.last_core then
          kick_core t task.Task.last_core
        else kick_some_idle t
      end
      else
        let waker_cpu =
          match waker_cpu with Some c when c >= 0 -> c | _ -> task.Task.last_core
        in
        let target = t.rc.Rc.policy.task_wakeup ~waker_cpu task in
        if is_idle t ~core:target then kick_core t target else kick_some_idle t)

let wakeup t ?(waker_cpu = -1) (task : Task.t) = wakeup_task t ~waker_cpu task

(* A dedicated core emulating a timer by broadcasting user IPIs to every
   worker core (the "utimer" of §5.3/§5.4).  Needs [preemption:false] so
   the receiver contexts keep the plain notification vector. *)
let start_utimer t ~src_core ~hz =
  if hz <= 0 then
    invalid_arg (t.name ^ ".start_utimer: hz must be positive");
  let period = max 1 (1_000_000_000 / hz) in
  Engine.every t.rc.Rc.engine ~period (fun () ->
      Array.iter
        (fun dst_core ->
          match Machine.uintr_installed t.rc.Rc.machine ~core:dst_core with
          | Some ctx ->
              Machine.senduipi t.rc.Rc.machine ~src_core ctx
                ~uvec:Vectors.uvec_preempt
          | None -> ())
        t.cores;
      true)

let register_uvec t ~uvec handler =
  if uvec = Vectors.uvec_timer || uvec = Vectors.uvec_preempt then
    invalid_arg (t.name ^ ".register_uvec: reserved uvec");
  Hashtbl.replace t.uvec_handlers uvec handler

let preempt_core t ~src_core ~dst_core =
  match Machine.uintr_installed t.rc.Rc.machine ~core:dst_core with
  | Some ctx ->
      Machine.senduipi t.rc.Rc.machine ~src_core ctx ~uvec:Vectors.uvec_preempt
  | None -> ()

let current t ~core = (cpu_of t core).ex.Rc.current

let wakeup_hist t =
  match t.rc.Rc.wakeups with Some h -> h | None -> assert false

let queue_depth_series t = t.rc.Rc.queue_depth
let task_switches t = t.rc.Rc.switches
let app_switches t = t.rc.Rc.app_switches
let preemptions t = t.rc.Rc.preempts
let timer_ticks t = t.ticks
let parks t = t.parks
let unparks t = t.unparks
let watchdog_rescues t = t.rc.Rc.rescues
let rescue_detection t = t.rc.Rc.rescue_detect
let deadline_drops t = t.rc.Rc.deadline_drops
let set_trace t trace = t.rc.Rc.trace <- Some trace

(* Pull-based registration: every closure reads existing state at snapshot
   time, so attaching a registry cannot perturb the simulation. *)
let register_metrics t ?(labels = []) reg =
  let rc = t.rc in
  let m suffix = "skyloft_" ^ String.lowercase_ascii t.name ^ "_" ^ suffix in
  let c suffix help read = Registry.counter reg ~help ~labels (m suffix) read in
  c "task_switches_total" "Intra-application task switches"
    (fun () -> rc.Rc.switches);
  c "app_switches_total"
    "Cross-application kthread switches through the kernel module" (fun () ->
      rc.Rc.app_switches);
  c "preemptions_total" "Tasks preempted off their core"
    (fun () -> rc.Rc.preempts);
  c "be_preemptions_total" "Best-effort tasks preempted"
    (fun () -> rc.Rc.be_preempts);
  c "timer_ticks_total" "User-space timer interrupts handled"
    (fun () -> t.ticks);
  c "watchdog_rescues_total" "Stuck cores rescued" (fun () ->
      rc.Rc.rescues);
  c "deadline_drops_total" "Tasks killed at their deadline"
    (fun () -> rc.Rc.deadline_drops);
  Registry.gauge reg ~labels (m "be_allowance")
    ~help:"Cores the best-effort application may occupy" (fun () ->
      float_of_int rc.Rc.be_allowance);
  Registry.histogram reg ~labels (m "wakeup_latency_ns")
    ~help:"Wakeup-to-dispatch latency" (wakeup_hist t);
  Registry.histogram reg ~labels (m "rescue_detection_ns")
    ~help:"Watchdog detection latency past the bound" rc.Rc.rescue_detect;
  Registry.series reg ~labels (m "queue_depth")
    ~help:"LC policy queue length" rc.Rc.queue_depth;
  Rc.register_app_metrics rc ~labels reg
