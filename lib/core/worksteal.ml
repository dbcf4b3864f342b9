module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Registry = Skyloft_obs.Registry

(* The work-stealing runtime: {!Percpu} with a steal-half policy (Shenango
   §5.3 made first-class).  Each core owns a deque — the owner pushes and
   pops at the head for LIFO cache locality, preempted and yielded tasks go
   to the tail — and a core whose deque runs dry scans the other deques
   round-robin from a persisted per-thief cursor and takes HALF the first
   non-empty victim's queue in one grab.  Stealing is not free: every
   probed victim deque costs a remote cacheline touch and every migrated
   task drags its state across cores, both charged to the thief's next
   dispatch through {!Percpu.charge_steal}.  Failed scans are reported
   through {!Percpu.steal_failed}, so a core whose scans keep failing parks
   at once and steal storms under uniform overload burn park/unpark
   transitions instead of unbounded rescans.  Everything else — kicks,
   ticks, the UINTR handler, rescue, faults, parking — is Percpu's. *)

(* Probing a victim's deque reads a remotely owned cacheline. *)
let steal_probe_ns = Time.of_cycles Costs.remote_cacheline

(* A migrated task's descriptor + hot stack lines move to the thief. *)
let steal_task_ns = Time.of_cycles (2 * Costs.remote_cacheline)

let default_park = Some (Time.us 5, Costs.linux_wakeup_switch_ns + Time.us 1)

type counters = {
  mutable steals : int;  (* successful steal-half grabs *)
  mutable stolen_tasks : int;  (* tasks migrated by those grabs *)
  mutable steal_fails : int;  (* full victim scans that found nothing *)
}

type t = { pc : Percpu.t; c : counters }

(* ---- the steal-half policy ---------------------------------------------- *)

(* [sched_balance] moves the victim's tail half into the thief's deque and
   returns one task to run; the rest stay queued on the thief, so the
   instrumented queue count (one decrement per successful balance) remains
   exact. *)
let steal_ctor c quantum pc : Sched_ops.ctor =
 fun view ->
  let n = Array.length view.cores in
  (* Core id -> position in [view.cores] (-1 if unmanaged), indexing the
     per-position deques and steal cursors: the same idiom as
     [Skyloft_policies.Work_stealing]. *)
  let pos = Array.make (1 + Array.fold_left max (-1) view.cores) (-1) in
  Array.iteri (fun i core -> pos.(core) <- i) view.cores;
  let pos_of cpu = if cpu >= 0 && cpu < Array.length pos then pos.(cpu) else -1 in
  let deques = Array.init n (fun _ -> Runqueue.create ()) in
  let cursors = Array.make n (-1) in
  let wake_rr = ref 0 in  (* rotating fallback for unmanaged wakers *)
  let q cpu =
    let i = pos_of cpu in
    if i < 0 then invalid_arg "worksteal: unmanaged cpu" else deques.(i)
  in
  {
    Sched_ops.policy_name =
      (match quantum with Some _ -> "worksteal-preemptive" | None -> "worksteal");
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        match reason with
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            Runqueue.push_tail (q cpu) task
        | Sched_ops.Enq_new | Sched_ops.Enq_woken -> Runqueue.push_head (q cpu) task);
    task_dequeue = (fun ~cpu -> Runqueue.pop_head (q cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        let target =
          if pos_of waker_cpu >= 0 then waker_cpu
          else begin
            let fallback = view.cores.(!wake_rr mod n) in
            wake_rr := (!wake_rr + 1) mod n;
            Sched_ops.wakeup_to_idle_or view ~fallback
          end
        in
        Runqueue.push_head (q target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        match quantum with
        | None -> false
        | Some quantum ->
            (not (Runqueue.is_empty (q cpu)))
            && view.now () - task.Task.run_start >= quantum);
    sched_balance =
      (fun ~cpu ->
        let self = pos_of cpu in
        if self < 0 then invalid_arg "worksteal: unmanaged cpu";
        let own = deques.(self) in
        let start = if cursors.(self) >= 0 then cursors.(self) else (self + 1) mod n in
        let stolen = ref None in
        let probes = ref 0 in
        let k = ref 0 in
        while !stolen = None && !k < n do
          let idx = (start + !k) mod n in
          if idx <> self then begin
            incr probes;
            let victim = deques.(idx) in
            if not (Runqueue.is_empty victim) then begin
              let moved = Runqueue.steal_half ~from:victim ~into:own in
              c.steals <- c.steals + 1;
              c.stolen_tasks <- c.stolen_tasks + moved;
              cursors.(self) <- (idx + 1) mod n;
              Percpu.charge_steal pc ~core:cpu
                ((!probes * steal_probe_ns) + (moved * steal_task_ns));
              stolen := Runqueue.pop_head own
            end
          end;
          incr k
        done;
        if !stolen = None then begin
          c.steal_fails <- c.steal_fails + 1;
          Percpu.steal_failed pc ~core:cpu
        end;
        !stolen);
  }

let create machine kmod ~cores ?(timer_hz = 100_000) ?(preemption = true)
    ?quantum ?(park = default_park) ?watchdog () =
  let c = { steals = 0; stolen_tasks = 0; steal_fails = 0 } in
  let pc =
    Percpu.make ~name:"Worksteal" machine kmod ~cores ~timer_hz ~preemption ~park
      ~watchdog (steal_ctor c quantum)
  in
  { pc; c }

let percpu t = t.pc
let steals t = t.c.steals
let stolen_tasks t = t.c.stolen_tasks
let steal_fails t = t.c.steal_fails

(* Percpu's metrics under [skyloft_worksteal_*], plus the steal and park
   counters. *)
let register_metrics t ?(labels = []) reg =
  Percpu.register_metrics t.pc ~labels reg;
  let c name help read = Registry.counter reg ~help ~labels name read in
  c "skyloft_worksteal_steals_total" "Successful steal-half grabs" (fun () ->
      t.c.steals);
  c "skyloft_worksteal_stolen_tasks_total" "Tasks migrated by steals" (fun () ->
      t.c.stolen_tasks);
  c "skyloft_worksteal_steal_fails_total" "Victim scans that found nothing"
    (fun () -> t.c.steal_fails);
  c "skyloft_worksteal_parks_total" "Idle cores parked to the kernel" (fun () ->
      Percpu.parks t.pc);
  c "skyloft_worksteal_unparks_total" "Parked cores woken for new work"
    (fun () -> Percpu.unparks t.pc)

(* The rest of the surface is Percpu's, eta-expanded so that no call
   allocates a partial application. *)
let create_app t ~name = Percpu.create_app t.pc ~name

let spawn t app ~name ?cpu ?arrival ?service ?record ?deadline ?on_drop body =
  Percpu.spawn t.pc app ~name ?cpu ?arrival ?service ?record ?deadline ?on_drop
    body

let attach_be_app t ?alloc app ~chunk ~workers =
  Percpu.attach_be_app t.pc ?alloc app ~chunk ~workers

let allocator t = Percpu.allocator t.pc
let set_core_allowance t n = Percpu.set_core_allowance t.pc n
let congestion t = Percpu.congestion t.pc
let queue_depth_series t = Percpu.queue_depth_series t.pc
let rescue_detection t = Percpu.rescue_detection t.pc
let set_trace t trace = Percpu.set_trace t.pc trace
let task_switches t = Percpu.task_switches t.pc
let preemptions t = Percpu.preemptions t.pc
let timer_ticks t = Percpu.timer_ticks t.pc
let be_preemptions t = Percpu.be_preemptions t.pc
let deadline_drops t = Percpu.deadline_drops t.pc
let watchdog_rescues t = Percpu.watchdog_rescues t.pc
let parks t = Percpu.parks t.pc
let unparks t = Percpu.unparks t.pc
