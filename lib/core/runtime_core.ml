module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Alloc_policy = Skyloft_alloc.Policy
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module Attribution = Skyloft_obs.Attribution

(* The shared substrate under every runtime (Table 2's framework claim):
   app table, task lifecycle + attribution stamping, BE occupancy, the
   Kmod switch_to multi-app path, trace vocabulary, watchdog bookkeeping,
   deadline kills, allocator probes and metrics.  A runtime contributes
   only its DISPATCH substrate — how tasks are picked, placed and
   preempted (per-CPU timer-driven, dedicated dispatcher, or the hybrid
   of both) — as a record of closures, mirroring the Sched_ops idiom. *)

(* One execution unit: a worker core's scheduling state.  Runtimes wrap
   it with their own per-unit extras (kick flags, assignment generations). *)
type exec = {
  exec_core : int;
  mutable exec_slot : int;  (* index among d_units; -1 before install *)
  mutable current : Task.t option;
  mutable completion : Eventq.handle;  (* Eventq.null when no segment armed *)
  mutable completion_fire : unit -> unit;
      (* the unit's one stable completion closure, installed with the
         dispatch record: every segment end re-arms it instead of building
         a fresh closure per segment *)
  mutable busy_from : Time.t;
  mutable active_app : int;
  mutable stolen_until : Time.t;  (* host kernel holds the core until then *)
}

(* The DISPATCH substrate signature, as a record of closures (installed
   after construction, like the policy, to break the knot). *)
type dispatch = {
  d_units : exec array;  (* every execution unit, in core order *)
  d_enqueue_cpu : exec -> int;
      (* queue a yielded task is re-enqueued on: the unit's own core
         (per-CPU) or the dispatcher's global queue (centralized) *)
  d_incoming_app : exec -> int;
      (* app id of an in-flight assignment racing toward the unit, -1 if
         none; synchronous dispatch never has one *)
  d_released : exec -> unit;
      (* the unit gave its task up (completion, block, preempt, kill):
         bump assignment generations, invalidate stale timers *)
  d_reschedule : exec -> prev:Task.t option -> unit;
      (* find the unit something to run: synchronous pick or dispatcher
         assignment *)
}

let null_dispatch =
  {
    d_units = [||];
    d_enqueue_cpu = (fun ex -> ex.exec_core);
    d_incoming_app = (fun _ -> -1);
    d_released = (fun _ -> ());
    d_reschedule = (fun _ ~prev:_ -> ());
  }

type t = {
  machine : Machine.t;
  engine : Engine.t;
  kmod : Kmod.t;
  kthreads : (int * int, Kmod.kthread) Hashtbl.t;  (* (app, core) -> kthread *)
  by_id : (int, App.t) Hashtbl.t;  (* O(1) app lookup, daemon included *)
  mutable apps : App.t list;  (* reverse creation order *)
  daemon : App.t;
  mutable policy : Sched_ops.instance;
  mutable probe : Sched_ops.probe;
  mutable be_app : App.t option;
  be_queue : Runqueue.t;  (* BE work lives here, outside the LC policy *)
  mutable be_allowance : int;  (* units BE tasks may occupy right now *)
  mutable core_allowance : int;
      (* units (by slot, a prefix of d_units) this runtime may occupy at
         all: the machine-level broker's grant.  max_int = uncapped, the
         single-tenant default — every gate below is then a no-op. *)
  mutable allocator : Allocator.t option;
  rescue_detect : Histogram.t;  (* how late each violation was caught *)
  wakeups : Histogram.t option;  (* wakeup-to-dispatch, when recorded *)
  queue_depth : Timeseries.t;  (* LC policy queue length over time *)
  trace_app_switches : bool;  (* emit App_switch instants (per-CPU style) *)
  mutable switches : int;
  mutable app_switches : int;
  mutable preempts : int;
  mutable be_preempts : int;
  mutable rescues : int;
  mutable deadline_drops : int;
  mutable trace : Trace.t option;
  mutable dispatch : dispatch;
  mutable next_app_id : int;  (* per-run id allocators: ids used to come *)
  mutable next_task_id : int;  (* from process-wide counters, which made
                                  concurrent runs perturb each other *)
}

let create machine kmod ~record_wakeups ~trace_app_switches =
  let t =
    {
      machine;
      engine = Machine.engine machine;
      kmod;
      kthreads = Hashtbl.create 64;
      by_id = Hashtbl.create 64;
      apps = [];
      daemon = App.daemon ();
      policy = Sched_ops.null_instance;
      probe = { Sched_ops.queued = (fun () -> 0); oldest_wait = (fun () -> 0) };
      be_app = None;
      be_queue = Runqueue.create ();
      be_allowance = 0;
      core_allowance = max_int;
      allocator = None;
      rescue_detect = Histogram.create ();
      wakeups = (if record_wakeups then Some (Histogram.create ()) else None);
      queue_depth = Timeseries.create ();
      trace_app_switches;
      switches = 0;
      app_switches = 0;
      preempts = 0;
      be_preempts = 0;
      rescues = 0;
      deadline_drops = 0;
      trace = None;
      dispatch = null_dispatch;
      next_app_id = 1;  (* id 0 is the daemon *)
      next_task_id = 1;
    }
  in
  Hashtbl.replace t.by_id t.daemon.App.id t.daemon;
  t

let now t = Engine.now t.engine

let make_exec core =
  {
    exec_core = core;
    exec_slot = -1;
    current = None;
    completion = Eventq.null;
    completion_fire = ignore;
    busy_from = 0;
    active_app = 0;
    stolen_until = 0;
  }

(* Broker gate: a unit whose slot falls beyond the core allowance may not
   run anything (its core belongs to another tenant right now).  Allowed
   units are the d_units prefix, which keeps the mapping deterministic:
   a grant of [n] cores is always units 0..n-1. *)
let unit_capped t ex = ex.exec_slot >= t.core_allowance
let set_core_allowance t n = t.core_allowance <- max 0 n

(* The runtime view handed to policy constructors: derived entirely from
   the DISPATCH units, so it is identical across runtimes. *)
let view t =
  {
    Sched_ops.cores = Array.map (fun ex -> ex.exec_core) t.dispatch.d_units;
    is_idle =
      (fun core ->
        Array.exists
          (fun ex ->
            ex.exec_core = core && ex.current = None && not (unit_capped t ex))
          t.dispatch.d_units);
    now = (fun () -> now t);
  }

let install_policy t ctor =
  let policy, probe =
    Sched_ops.instrument
      ~now:(fun () -> now t)
      ~on_change:(fun n -> Timeseries.record t.queue_depth ~at:(now t) n)
      (ctor (view t))
  in
  t.policy <- policy;
  t.probe <- probe

(* ---- applications and kthreads ------------------------------------------ *)

let find_app t id = Hashtbl.find t.by_id id

let new_app t ~name =
  let id = t.next_app_id in
  t.next_app_id <- id + 1;
  let app = App.create ~id ~name in
  t.apps <- app :: t.apps;
  Hashtbl.replace t.by_id app.App.id app;
  app

let fresh_task_id t =
  let id = t.next_task_id in
  t.next_task_id <- id + 1;
  id

let add_kthread t ~app ~core =
  let kt = Kmod.park_on_cpu t.kmod ~app ~core in
  Hashtbl.replace t.kthreads (app, core) kt;
  kt

let kthread t ~app ~core = Hashtbl.find t.kthreads (app, core)

let is_be t (task : Task.t) =
  match t.be_app with Some app -> task.Task.app = app.App.id | None -> false

(* Units the BE application occupies right now, counting in-flight
   assignments so an allowance cannot be oversubscribed while a dispatch
   is pending (synchronous runtimes never have one). *)
let be_occupancy t =
  match t.be_app with
  | None -> 0
  | Some app ->
      Array.fold_left
        (fun acc ex ->
          let running =
            match ex.current with
            | Some task -> task.Task.app = app.App.id
            | None -> false
          in
          if running || t.dispatch.d_incoming_app ex = app.App.id then acc + 1
          else acc)
        0 t.dispatch.d_units

(* ---- accounting and trace vocabulary ------------------------------------- *)

let account t ex =
  (match ex.current with
  | Some task ->
      let app = find_app t task.Task.app in
      app.App.busy_ns <- app.App.busy_ns + max 0 (now t - ex.busy_from);
      (match t.trace with
      | Some trace when now t > ex.busy_from ->
          Trace.span trace ~core:ex.exec_core ~app:task.Task.app
            ~name:task.Task.name ~start:ex.busy_from ~stop:(now t)
      | _ -> ())
  | None -> ());
  ex.busy_from <- now t

let trace_instant t ~core kind name =
  match t.trace with
  | Some trace -> Trace.instant trace ~core ~at:(now t) kind ~name
  | None -> ()

let release t ex =
  ex.current <- None;
  t.dispatch.d_released ex

(* Cross-application switch through the kernel module (§3.3/§5.4):
   returns the charged cost. *)
let app_switch t ex (task : Task.t) =
  let from_kt = Hashtbl.find t.kthreads (ex.active_app, ex.exec_core) in
  let to_kt = Hashtbl.find t.kthreads (task.Task.app, ex.exec_core) in
  let cost = Kmod.switch_to t.kmod ~from:from_kt ~target:to_kt in
  ex.active_app <- task.Task.app;
  t.app_switches <- t.app_switches + 1;
  if t.trace_app_switches then
    trace_instant t ~core:ex.exec_core Trace.App_switch task.Task.name;
  cost

(* ---- the shared task lifecycle ------------------------------------------- *)

let rec process t ex (task : Task.t) =
  match task.body with
  | Coro.Compute (d, k) ->
      task.cont <- k;
      task.segment_end <- now t + d;
      ex.completion <- Engine.at t.engine task.segment_end ex.completion_fire
  | Coro.Yield _ ->
      (* continuation evaluated at the next dispatch (resume time) *)
      task.state <- Task.Runnable;
      account t ex;
      release t ex;
      task.obs_enq_at <- now t;
      if is_be t task then Runqueue.push_tail t.be_queue task
      else
        t.policy.task_enqueue
          ~cpu:(t.dispatch.d_enqueue_cpu ex)
          ~reason:Sched_ops.Enq_yielded task;
      t.dispatch.d_reschedule ex ~prev:(Some task)
  | Coro.Block k ->
      if task.pending_wake then begin
        task.pending_wake <- false;
        task.body <- k ();
        process t ex task
      end
      else begin
        task.body <- Coro.Block k;
        task.state <- Task.Blocked;
        account t ex;
        release t ex;
        task.obs_block_at <- now t;
        t.policy.task_block ~cpu:ex.exec_core task;
        t.dispatch.d_reschedule ex ~prev:(Some task)
      end
  | Coro.Exit ->
      task.state <- Task.Exited;
      account t ex;
      release t ex;
      let app = find_app t task.app in
      app.App.completed <- app.App.completed + 1;
      app.App.tasks_alive <- app.App.tasks_alive - 1;
      t.policy.task_terminate task;
      (match task.on_exit with Some f -> f task | None -> ());
      t.dispatch.d_reschedule ex ~prev:(Some task)

and on_complete t ex (task : Task.t) =
  ex.completion <- Eventq.null;
  task.body <- task.cont ();
  process t ex task

(* Install the dispatch record and wire each unit's stable completion
   closure.  The closure reads [ex.current] when it fires: a completion is
   only ever armed for the unit's current task, and every path that takes
   the task off the unit (depose, kill, steal-freeze) cancels it first. *)
let install_dispatch t d =
  t.dispatch <- d;
  Array.iteri
    (fun i ex ->
      ex.exec_slot <- i;
      ex.completion_fire <-
        (fun () ->
          ex.completion <- Eventq.null;
          match ex.current with
          | Some task ->
              task.Task.body <- task.Task.cont ();
              process t ex task
          | None -> ()))
    d.d_units;
  t.be_allowance <- Array.length d.d_units

(* Re-arm the completion timer after the segment end moved (time steals). *)
let arm_completion t ex (task : Task.t) =
  ex.completion <- Engine.at t.engine task.Task.segment_end ex.completion_fire

(* Put [task] on [ex]: lifecycle state, attribution stamping, and the
   wakeup-latency sample.  Returns the moment execution begins (after the
   switch cost). *)
let begin_run t ex (task : Task.t) ~switch_cost =
  task.state <- Task.Running;
  ex.current <- Some task;
  ex.busy_from <- now t;
  task.obs_queued_ns <- task.obs_queued_ns + max 0 (now t - task.obs_enq_at);
  task.obs_overhead_ns <- task.obs_overhead_ns + switch_cost;
  let start = now t + switch_cost in
  (match task.wake_time with
  | Some w ->
      (match t.wakeups with
      | Some h when task.track_wakeup -> Histogram.record h (start - w)
      | Some _ | None -> ());
      task.wake_time <- None
  | None -> ());
  task.run_start <- start;
  task.last_core <- ex.exec_core;
  start

(* The second half of a dispatch: once the switch cost has elapsed, start
   executing the task's body — unless the unit moved on meanwhile. *)
let run_after_switch t ex (task : Task.t) ~switch_cost =
  ignore
    (Engine.after t.engine switch_cost (fun () ->
         match ex.current with
         | Some cur when cur == task && task.Task.state = Task.Running ->
             (match task.body with
             | Coro.Yield k -> task.body <- k ()
             | Coro.Block k when task.resuming ->
                 task.resuming <- false;
                 task.body <- k ()
             | Coro.Block _ | Coro.Compute _ | Coro.Exit -> ());
             process t ex task
         | _ -> ()))

(* Take the running task off its unit (preemption, rescue).  [overhead] is
   the receiver-side handling cost: it extends the remaining segment and is
   charged to the task now — the attribution identity holds either way
   because the response time counts it exactly once.  Returns the deposed
   task; the caller requeues it and reschedules the unit. *)
let depose t ex ~overhead =
  match ex.current with
  | Some task when not (Eventq.is_null ex.completion) ->
      Engine.cancel t.engine ex.completion;
      ex.completion <- Eventq.null;
      let remaining = max 0 (task.Task.segment_end - now t) + overhead in
      task.Task.body <- Coro.Compute (remaining, task.Task.cont);
      task.Task.state <- Task.Runnable;
      if overhead > 0 then
        task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + overhead;
      account t ex;
      release t ex;
      task.Task.obs_enq_at <- now t;
      trace_instant t ~core:ex.exec_core Trace.Preempt task.Task.name;
      Some task
  | _ -> None

(* Dequeue-side filter: tasks killed at their deadline while queued are
   discarded here instead of being hunted down inside the policy's
   runqueues (the drop was accounted at kill time). *)
let rec next_live t pick =
  match pick () with
  | Some task when task.Task.killed ->
      task.Task.state <- Task.Exited;
      if not (is_be t task) then t.policy.task_terminate task;
      next_live t pick
  | next -> next

(* ---- wakeups -------------------------------------------------------------- *)

(* The shared wake path: state transition, stall attribution and the trace
   instant; [place] is the runtime's placement (policy wakeup + kick, or
   dispatcher pump). *)
let awaken t (task : Task.t) ~place =
  match task.Task.state with
  | Task.Blocked ->
      task.Task.state <- Task.Runnable;
      task.Task.resuming <- true;
      task.Task.wake_time <- Some (now t);
      task.Task.obs_stall_ns <-
        task.Task.obs_stall_ns + max 0 (now t - task.Task.obs_block_at);
      task.Task.obs_enq_at <- now t;
      trace_instant t ~core:(max 0 task.Task.last_core) Trace.Wakeup
        task.Task.name;
      place task
  | Task.Running | Task.Runnable -> task.Task.pending_wake <- true
  | Task.Exited -> ()

(* ---- deadlines ------------------------------------------------------------ *)

let deadline_expired t (task : Task.t) ~on_drop =
  let app = find_app t task.Task.app in
  app.App.tasks_alive <- app.App.tasks_alive - 1;
  Summary.record_drop app.App.summary;
  t.deadline_drops <- t.deadline_drops + 1;
  trace_instant t ~core:(max 0 task.Task.last_core) Trace.Deadline_drop
    task.Task.name;
  match on_drop with Some f -> f task | None -> ()

let kill t ?on_drop (task : Task.t) =
  if not task.Task.killed then
    match task.Task.state with
    | Task.Exited -> ()
    | Task.Running -> (
        match
          Array.find_opt
            (fun ex ->
              match ex.current with Some cur -> cur == task | None -> false)
            t.dispatch.d_units
        with
        | Some ex ->
            Engine.cancel t.engine ex.completion;
            ex.completion <- Eventq.null;
            task.Task.killed <- true;
            task.Task.state <- Task.Exited;
            account t ex;
            release t ex;
            t.policy.task_terminate task;
            deadline_expired t task ~on_drop;
            t.dispatch.d_reschedule ex ~prev:(Some task)
        | None -> ())
    | Task.Runnable ->
        (* Somewhere in a runqueue: account the drop now, discard lazily at
           the next dequeue (see [next_live]). *)
        task.Task.killed <- true;
        deadline_expired t task ~on_drop
    | Task.Blocked ->
        task.Task.killed <- true;
        task.Task.state <- Task.Exited;
        t.policy.task_terminate task;
        deadline_expired t task ~on_drop

let arm_deadline t ?on_drop (task : Task.t) ~deadline ~who =
  if deadline <= 0 then invalid_arg (who ^ ": deadline must be positive");
  ignore (Engine.after t.engine deadline (fun () -> kill t ?on_drop task))

(* ---- task admission ------------------------------------------------------- *)

(* Create a task with the attribution-recording exit hook: on completion
   the request's summary entry and its latency-attribution row (queueing +
   service + overhead + stall = response, exact in integer ns) are written
   into the owning application. *)
let admit t (app : App.t) ~name ~arrival ~service ~record body =
  let on_exit =
    if record then
      Some
        (fun (task : Task.t) ->
          (* Zero-service completions count too: omitting them broke the
             submitted = completed + gave-up + drops reconciliation for
             degenerate workloads. *)
          Summary.record_request app.App.summary ~arrival:task.Task.arrival
            ~completion:(now t) ~service:task.Task.service;
          Attribution.record app.App.attribution
            ~queueing:task.Task.obs_queued_ns
            ~overhead:task.Task.obs_overhead_ns ~stall:task.Task.obs_stall_ns
            ~response:(now t - task.Task.obs_start)
            ~declared:task.Task.service)
    else None
  in
  let task =
    Task.create ~id:(fresh_task_id t) ~app:app.App.id ~name ~arrival ~service
      ?on_exit body
  in
  task.Task.obs_start <- now t;
  task.Task.obs_enq_at <- now t;
  app.App.spawned <- app.App.spawned + 1;
  app.App.tasks_alive <- app.App.tasks_alive + 1;
  task

(* ---- watchdog bookkeeping ------------------------------------------------- *)

(* Count and trace a watchdog rescue; the runtime performs the actual
   recovery (preempt, timer re-arm, failover) itself. *)
let rescued t ex ~late =
  t.rescues <- t.rescues + 1;
  Histogram.record t.rescue_detect late;
  match ex.current with
  | Some task ->
      trace_instant t ~core:ex.exec_core Trace.Watchdog_rescue task.Task.name
  | None -> ()

let start_watchdog t ~bound scan =
  match bound with
  | Some b ->
      (* Scan at half the bound so a violation is caught within ~1.5x. *)
      Engine.every t.engine ~period:(max 1 (b / 2)) (fun () ->
          scan ~bound:b;
          true)
  | None -> ()

(* Host-kernel steal of a unit's core: the running segment freezes for the
   outage and resumes at hand-back; run_start moves with it so quantum and
   watchdog clocks do not count stolen time against the task. *)
let freeze_for_steal t ex ~duration =
  ex.stolen_until <- max ex.stolen_until (now t + duration);
  match ex.current with
  | Some task when not (Eventq.is_null ex.completion) ->
      Engine.cancel t.engine ex.completion;
      task.Task.segment_end <- task.Task.segment_end + duration;
      task.Task.run_start <- task.Task.run_start + duration;
      task.Task.obs_stall_ns <- task.Task.obs_stall_ns + duration;
      arm_completion t ex task
  | _ -> ()

(* ---- busy accounting for the allocator ----------------------------------- *)

(* Busy nanoseconds including the in-flight segment of running units, so
   the allocator's utilization sample does not lag long-running tasks. *)
let in_flight_busy t ~matches =
  Array.fold_left
    (fun acc ex ->
      match ex.current with
      | Some task when matches task.Task.app -> acc + max 0 (now t - ex.busy_from)
      | _ -> acc)
    0 t.dispatch.d_units

let lc_busy_ns t =
  let be_id = match t.be_app with Some app -> app.App.id | None -> -1 in
  let recorded =
    List.fold_left
      (fun acc (a : App.t) -> if a.App.id = be_id then acc else acc + a.App.busy_ns)
      t.daemon.App.busy_ns t.apps
  in
  recorded + in_flight_busy t ~matches:(fun id -> id <> be_id)

let be_busy_ns t (app : App.t) =
  app.App.busy_ns + in_flight_busy t ~matches:(fun id -> id = app.App.id)

let total_busy_ns t =
  List.fold_left (fun acc app -> acc + app.App.busy_ns) t.daemon.App.busy_ns t.apps

(* The congestion sample a machine-level broker reads for this runtime as
   a whole: the LC policy probe plus the BE backlog, and total busy time
   including in-flight segments (the broker arbitrates whole runtimes,
   not apps). *)
let congestion t =
  {
    Allocator.runq_len = t.probe.Sched_ops.queued () + Runqueue.length t.be_queue;
    oldest_delay = t.probe.Sched_ops.oldest_wait ();
    busy_ns = total_busy_ns t + in_flight_busy t ~matches:(fun _ -> true);
  }

(* ---- BE attachment and the core allocator -------------------------------- *)

let spawn_be_workers t (app : App.t) ~chunk ~workers ~who =
  if t.be_app <> None then invalid_arg (who ^ ": BE app already set");
  if not (List.exists (fun a -> a == app) t.apps) then
    invalid_arg (who ^ ": app not created by this runtime");
  t.be_app <- Some app;
  for i = 1 to workers do
    (* A batch worker is an endless sequence of compute chunks, yielding
       between chunks so reclaimed cores come back promptly. *)
    let rec loop () = Coro.Compute (chunk, fun () -> Coro.Yield loop) in
    let task =
      Task.create ~id:(fresh_task_id t) ~app:app.App.id
        ~name:(Printf.sprintf "be-%d" i) (loop ())
    in
    app.App.spawned <- app.App.spawned + 1;
    app.App.tasks_alive <- app.App.tasks_alive + 1;
    Runqueue.push_tail t.be_queue task
  done

(* Start the congestion-driven core allocator: LC registered on the policy
   probe's congestion signals, BE on its queue backlog; [set_allowance] is
   the runtime's reclaim/grant muscle, and every core moved charges the
   §5.4 inter-application switch cost on the BE side only so each move is
   charged once. *)
let start_allocator t ~cfg ~be:(app : App.t) ~on_event ~set_allowance =
  let total = Array.length t.dispatch.d_units in
  let burst = min (Option.value cfg.Allocator.be_burstable ~default:total) total in
  let guar = min (max 0 cfg.Allocator.be_guaranteed) burst in
  t.be_allowance <- burst;
  let alloc =
    Allocator.create ~engine:t.engine ~policy:cfg.Allocator.policy
      ~interval:cfg.Allocator.interval ~total_cores:total ~on_event
      ?degrade_after:cfg.Allocator.degrade_after ()
  in
  Allocator.register alloc ~app:0 ~name:"lc" ~kind:Alloc_policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = total }
    ~initial:(total - burst)
    ~sample:(fun () ->
      {
        Allocator.runq_len = t.probe.Sched_ops.queued ();
        oldest_delay = t.probe.Sched_ops.oldest_wait ();
        busy_ns = lc_busy_ns t;
      })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.register alloc ~app:app.App.id ~name:app.App.name
    ~kind:Alloc_policy.Be
    ~bounds:{ Allocator.guaranteed = guar; burstable = burst }
    ~initial:burst
    ~sample:(fun () ->
      {
        Allocator.runq_len = Runqueue.length t.be_queue;
        oldest_delay = 0;
        busy_ns = be_busy_ns t app;
      })
    ~apply:(fun ~granted ~delta ->
      set_allowance granted;
      Costs.app_switch_ns * abs delta);
  Allocator.start alloc;
  t.allocator <- Some alloc

(* ---- metrics -------------------------------------------------------------- *)

(* Per-application task counters, response-time histogram and latency
   attribution, identical across runtimes: the [skyloft_app_] family. *)
let register_app_metrics t ?(labels = []) reg =
  List.iter
    (fun (app : App.t) ->
      let al = labels @ [ Registry.app app.App.name ] in
      Registry.counter reg ~labels:al "skyloft_app_spawned_total"
        ~help:"Tasks spawned" (fun () -> app.App.spawned);
      Registry.counter reg ~labels:al "skyloft_app_completed_total"
        ~help:"Tasks completed" (fun () -> app.App.completed);
      Registry.counter reg ~labels:al "skyloft_app_busy_ns_total"
        ~help:"Accumulated worker CPU time" (fun () -> app.App.busy_ns);
      Registry.histogram reg ~labels:al "skyloft_app_response_ns"
        ~help:"Request response time" (Summary.latency app.App.summary);
      Attribution.register reg ~labels:al app.App.attribution)
    t.apps
