module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry

(** The shared runtime substrate (the framework claim of Table 2).

    Every Skyloft runtime — per-CPU (Figure 2a), centralized (Figure 2b),
    and the hybrid of both — is the same core: an app table, the task
    lifecycle with latency-attribution stamping, BE occupancy accounting,
    the kernel-module multi-application switch path (§5.4), one trace
    span/instant vocabulary, watchdog bookkeeping, deadline kill timers,
    the allocator's congestion probes, and per-app metrics.  What differs
    is only the {!dispatch} substrate: how a runtime picks, places and
    preempts tasks.  A runtime instantiates the core by building its
    execution units, installing a [dispatch] record over them, and keeping
    for itself nothing but its dispatch mechanics (timer ticks and kicks,
    or the serial dispatcher). *)

(** One execution unit: a worker core's scheduling state.  Runtimes wrap
    it with their own per-unit extras (kick flags, assignment
    generations). *)
type exec = {
  exec_core : int;
  mutable exec_slot : int;  (** index among [d_units]; [-1] before install *)
  mutable current : Task.t option;
  mutable completion : Eventq.handle;
      (** segment-end event for [current]; [Eventq.null] when none armed *)
  mutable completion_fire : unit -> unit;
      (** the unit's one stable completion closure (installed by
          {!install_dispatch}); re-armed per segment instead of allocating
          a closure each *)
  mutable busy_from : Time.t;
  mutable active_app : int;
  mutable stolen_until : Time.t;
}

(** The DISPATCH substrate: a record of closures (the {!Sched_ops} idiom),
    installed after construction via {!install_dispatch}. *)
type dispatch = {
  d_units : exec array;  (** every execution unit, in core order *)
  d_enqueue_cpu : exec -> int;
      (** which queue a yielded task re-enters: the unit's own core
          (per-CPU) or the dispatcher's global queue (centralized) *)
  d_incoming_app : exec -> int;
      (** app id of an in-flight assignment racing toward the unit, [-1]
          if none; synchronous dispatch never has one *)
  d_released : exec -> unit;
      (** the unit gave its task up: bump assignment generations,
          invalidate stale timers *)
  d_reschedule : exec -> prev:Task.t option -> unit;
      (** find the unit something to run *)
}

val null_dispatch : dispatch

type t = {
  machine : Machine.t;
  engine : Engine.t;
  kmod : Kmod.t;
  kthreads : (int * int, Kmod.kthread) Hashtbl.t;
  by_id : (int, App.t) Hashtbl.t;  (** O(1) app lookup, daemon included *)
  mutable apps : App.t list;  (** reverse creation order *)
  daemon : App.t;
  mutable policy : Sched_ops.instance;
  mutable probe : Sched_ops.probe;
  mutable be_app : App.t option;
  be_queue : Runqueue.t;
  mutable be_allowance : int;
  mutable core_allowance : int;
      (** units (a prefix of [d_units], by slot) this runtime may occupy
          at all: a machine-level core broker's grant.  [max_int] —
          the single-tenant default — disables every gate. *)
  mutable allocator : Allocator.t option;
  rescue_detect : Histogram.t;
  wakeups : Histogram.t option;
  queue_depth : Timeseries.t;
  trace_app_switches : bool;
  mutable switches : int;
  mutable app_switches : int;
  mutable preempts : int;
  mutable be_preempts : int;
  mutable rescues : int;
  mutable deadline_drops : int;
  mutable trace : Trace.t option;
  mutable dispatch : dispatch;
  mutable next_app_id : int;
      (** per-run app-id allocator (1, 2, ...; the daemon is 0).  Ids used
          to come from a process-wide counter, which made simulations in
          different domains perturb each other; per-run state keeps every
          run a pure function of its seed under any parallelism. *)
  mutable next_task_id : int;  (** per-run task-id allocator (1, 2, ...) *)
}

val create :
  Machine.t -> Kmod.t -> record_wakeups:bool -> trace_app_switches:bool -> t
(** A core with the null dispatch installed; {!install_dispatch} and
    {!install_policy} complete construction.  [record_wakeups] keeps a
    wakeup-to-dispatch histogram (per-CPU style); [trace_app_switches]
    emits an [App_switch] instant per cross-application switch. *)

val now : t -> Time.t
val make_exec : int -> exec

val install_dispatch : t -> dispatch -> unit
(** Install the substrate; numbers the unit slots and resets the BE
    allowance to the unit count. *)

val unit_capped : t -> exec -> bool
(** Whether the broker gate forbids this unit from running anything: its
    slot falls beyond {!field-t.core_allowance}.  Allowed units are always
    the [d_units] prefix, so a grant of [n] cores maps deterministically
    to units [0..n-1]. *)

val set_core_allowance : t -> int -> unit
(** Record the broker's grant (clamped at 0).  Pure bookkeeping: evicting
    tasks already running on newly capped units is the runtime's job. *)

val view : t -> Sched_ops.view
(** The runtime view handed to policy constructors, derived entirely from
    the DISPATCH units (requires {!install_dispatch} first). *)

val install_policy : t -> Sched_ops.ctor -> unit
(** Instrument the policy with the congestion probe and the queue-depth
    series, then install it. *)

(** {1 Applications and kthreads} *)

val find_app : t -> int -> App.t
(** O(1); raises [Not_found] on unknown ids (daemon is id 0). *)

val new_app : t -> name:string -> App.t
val add_kthread : t -> app:int -> core:int -> Kmod.kthread
val kthread : t -> app:int -> core:int -> Kmod.kthread
val is_be : t -> Task.t -> bool

val be_occupancy : t -> int
(** Units the BE application occupies right now, in-flight assignments
    included. *)

(** {1 Accounting and trace vocabulary} *)

val account : t -> exec -> unit
(** Charge the unit's busy segment to the running task's application and
    emit the run span; resets the busy clock. *)

val trace_instant : t -> core:int -> Trace.instant_kind -> string -> unit
val release : t -> exec -> unit

val app_switch : t -> exec -> Task.t -> Time.t
(** Cross-application switch through the kernel module; returns the
    charged cost. *)

(** {1 The task lifecycle} *)

val process : t -> exec -> Task.t -> unit
(** Run the task's next coroutine step on the unit: arm the completion
    timer for compute segments; account, release and requeue on yield /
    block / exit, then hand the unit to [d_reschedule]. *)

val on_complete : t -> exec -> Task.t -> unit
val arm_completion : t -> exec -> Task.t -> unit

val begin_run : t -> exec -> Task.t -> switch_cost:Time.t -> Time.t
(** Put the task on the unit: lifecycle state, attribution stamping, the
    wakeup-latency sample.  Returns when execution begins (after the
    switch cost). *)

val run_after_switch : t -> exec -> Task.t -> switch_cost:Time.t -> unit
(** Arm the start-of-execution event for a task placed by {!begin_run}. *)

val depose : t -> exec -> overhead:Time.t -> Task.t option
(** Take the running task off its unit (preemption, rescue), charging the
    receiver-side [overhead] to it.  Returns the deposed task; the caller
    requeues it and reschedules the unit.  [None] if the unit is not
    mid-segment. *)

val next_live : t -> (unit -> Task.t option) -> Task.t option
(** Dequeue through [pick], lazily discarding tasks killed while queued. *)

(** {1 Wakeups} *)

val awaken : t -> Task.t -> place:(Task.t -> unit) -> unit
(** The shared wake path: state transition, stall attribution, trace
    instant, then the runtime's [place].  Non-blocked tasks get their
    pending-wake flag set instead. *)

(** {1 Deadlines} *)

val deadline_expired : t -> Task.t -> on_drop:(Task.t -> unit) option -> unit
val kill : t -> ?on_drop:(Task.t -> unit) -> Task.t -> unit

val arm_deadline :
  t -> ?on_drop:(Task.t -> unit) -> Task.t -> deadline:Time.t -> who:string -> unit
(** Arm a kill timer; raises [Invalid_argument] naming the runtime [who]
    unless the deadline is positive. *)

(** {1 Task admission} *)

val admit :
  t ->
  App.t ->
  name:string ->
  arrival:Time.t ->
  service:Time.t ->
  record:bool ->
  Coro.t ->
  Task.t
(** Create a task owned by [app] with the attribution-recording exit hook
    (when [record]) and the spawn counters bumped; placement is the
    runtime's job.  Every recorded completion counts — including
    zero-service tasks — so submitted = completed + gave-up + drops
    reconciles for degenerate workloads. *)

(** {1 Watchdog bookkeeping} *)

val rescued : t -> exec -> late:Time.t -> unit
(** Count and trace a watchdog rescue; the runtime performs the actual
    recovery itself. *)

val start_watchdog : t -> bound:Time.t option -> (bound:Time.t -> unit) -> unit
(** Arm the periodic scan at half the bound (violations caught within
    ~1.5x); no-op when [bound] is [None]. *)

val freeze_for_steal : t -> exec -> duration:Time.t -> unit
(** Host-kernel steal: freeze the running segment for the outage and move
    [run_start] with it so quantum/watchdog clocks exempt stolen time. *)

(** {1 Busy accounting} *)

val in_flight_busy : t -> matches:(int -> bool) -> int
val lc_busy_ns : t -> int
val be_busy_ns : t -> App.t -> int
val total_busy_ns : t -> int

val congestion : t -> Allocator.raw
(** The whole-runtime congestion sample a machine-level broker reads: LC
    probe backlog plus BE queue length, oldest LC wait, and total busy
    nanoseconds including in-flight segments. *)

(** {1 BE attachment and the core allocator} *)

val spawn_be_workers :
  t -> App.t -> chunk:Time.t -> workers:int -> who:string -> unit
(** Validate and mark [app] as the BE application, then seed its endless
    chunked batch workers into the BE queue. *)

val start_allocator :
  t ->
  cfg:Allocator.config ->
  be:App.t ->
  on_event:(Allocator.event -> unit) ->
  set_allowance:(int -> unit) ->
  unit
(** Register LC (policy congestion probe) and BE (queue backlog) with a
    new allocator and start it; [set_allowance] is the runtime's
    reclaim/grant muscle.  Each core moved charges the §5.4 switch cost on
    the BE side. *)

(** {1 Metrics} *)

val register_app_metrics : t -> ?labels:Registry.labels -> Registry.t -> unit
(** Per-application counters, response-time histogram and latency
    attribution ([skyloft_app_*]), identical across runtimes. *)
