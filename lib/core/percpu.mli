module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Registry = Skyloft_obs.Registry

(** The per-CPU Skyloft runtime (Figure 2a).

    Each isolated core runs the main scheduling loop: dequeue from the
    policy's runqueue, run the task, balance when idle.  Preemption comes
    from user-space timer interrupts — the LAPIC timer delegated through
    UINTR per §3.2 — handled by the global user-interrupt handler of
    Listing 1.  Tasks from multiple applications share the runqueues; a
    switch to a task of a different application goes through the kernel
    module ({!Kmod.switch_to}), charging the inter-application switch cost.

    Costs charged per event:
    - intra-application task switch: {!Skyloft_hw.Costs.uthread_yield_ns}
    - inter-application task switch: {!Skyloft_hw.Costs.app_switch_ns}
    - each timer tick: user-timer receive + the SN re-post SENDUIPI
    - preemption via user IPI (from [preempt_core]): UIPI delivery and
      receive costs.

    Every entry point that takes a core ([spawn ~cpu], [current],
    [fault_current]) raises [Invalid_argument] naming the runtime and the
    core when the runtime does not manage that core. *)

type t

val create :
  Machine.t ->
  Kmod.t ->
  cores:int list ->
  ?timer_hz:int ->
  ?preemption:bool ->
  ?park:Time.t * Time.t ->
  ?watchdog:Time.t ->
  Sched_ops.ctor ->
  t
(** Build the runtime on the isolated [cores].  When [preemption] (default
    true), every core's LAPIC timer is programmed at [timer_hz] (default
    100,000 — Table 5) and delegated to user space.  The policy constructor
    receives the runtime's {!Sched_ops.view}.

    [park = (idle_after, resume_cost)] models Shenango-style core
    reallocation: a core idle for [idle_after] is returned to the kernel,
    and handing it back to the runtime costs [resume_cost] extra on the
    next dispatch — the "frequent core adjustments, yielding and wake-ups"
    the paper blames for Shenango's low-load tail (§5.3).  Skyloft itself
    does not park (idle loops keep spinning).

    [watchdog] arms the per-core watchdog: a periodic scan (twice per
    bound) that detects cores stuck on one task for longer than the bound
    with no scheduling point — a lost timer tick, a disabled preemption
    path, a poisoned task — and rescues them: re-arm the LAPIC timer,
    re-post the pending-tick user IPI if the receiver is masked for timer
    delegation, and force a preemption.  Rescues are counted and traced
    ({!watchdog_rescues}, {!rescue_detection}).  Cores inside a host-kernel
    steal ({!Kmod.steal_core}) are exempt until hand-back. *)

val create_app : t -> name:string -> App.t
(** Launch an application: registers one parked kernel thread per isolated
    core with the kernel module. *)

val attach_be_app :
  t ->
  ?alloc:Skyloft_alloc.Allocator.config ->
  App.t ->
  chunk:Time.t ->
  workers:int ->
  unit
(** Co-schedule [app] as the best-effort application: [workers] batch
    tasks, each an endless sequence of [chunk]-sized compute segments,
    kept outside the LC policy's runqueues.  Starts the core allocator
    ([alloc], default {!Skyloft_alloc.Allocator.default_config}): its
    policy decides each interval how many cores BE may occupy; every core
    moved charges the §5.4 inter-application switch cost, and grants and
    reclaims are emitted as trace instants when tracing is on.  Timer
    ticks preempt BE tasks whenever LC work is queued. *)

val allocator : t -> Skyloft_alloc.Allocator.t option
(** The running core allocator, once {!attach_be_app} has started it. *)

val be_preemptions : t -> int
(** BE tasks preempted (timer ticks with LC work queued + allocator
    reclaims). *)

val set_core_allowance : t -> int -> unit
(** How many cores this runtime may occupy at all: a machine-level core
    broker's grant ({!set_be_allowance} one level up).  Allowed cores are
    always the creation-order prefix.  Shrinking evicts tasks running on
    newly capped cores (user-IPI receive cost charged, refugees requeued
    on an allowed core); growing kicks the cores handed back.  The
    default, [max_int], disables the gate entirely. *)

val congestion : t -> Skyloft_alloc.Allocator.raw
(** The whole-runtime congestion sample a machine-level broker reads:
    LC probe backlog + BE queue length, oldest LC wait, total busy ns. *)

val spawn :
  t -> App.t -> name:string -> ?cpu:int -> ?arrival:Time.t -> ?service:Time.t ->
  ?record:bool -> ?deadline:Time.t -> ?on_drop:(Task.t -> unit) -> Coro.t ->
  Task.t
(** Create a task.  [cpu] pins initial placement (default: an idle core,
    else round-robin).  When [record] (default true) the task's completion
    is recorded into the application's {!App.t.summary}.

    [deadline] arms a kill timer [deadline] ns from now: if the task has
    not exited by then it is forcibly terminated wherever it is, counted as a
    deadline drop in the app's summary, and [on_drop] is called — the
    task neither completes nor lingers, so every spawn is accounted for
    exactly once. *)

val wakeup : t -> ?waker_cpu:int -> Task.t -> unit
(** [task_wakeup]: make a blocked task runnable again (placement is the
    policy's choice).  Waking a non-blocked task sets its pending-wake
    flag. *)

val fault_current : t -> core:int -> duration:Time.t -> bool
(** §6 "Blocking events": block the task currently running on [core] for
    [duration] (a page fault or blocking syscall observed by the
    userfaultfd monitor) and reschedule other work — possibly another
    application's — on the core meanwhile.  [false] if the core was not
    running a task. *)

val register_uvec : t -> uvec:int -> (int -> unit) -> unit
(** Register a user-space driver handler for a delegated peripheral
    interrupt (§6): when user vector [uvec] is recognised on a managed
    core, the runtime charges the user-IPI receive cost and calls the
    handler with the core id.  Vectors 0 (timer) and 1 (preempt) are
    reserved. *)

val start_utimer : t -> src_core:int -> hz:int -> unit
(** Emulate per-CPU timers from a dedicated core ([src_core], outside the
    managed set) that broadcasts preemption user IPIs at [hz] to every
    worker (the "utimer" of §5.3).  Requires [preemption:false].  Costs a
    whole core and pays cross-core IPI latency per tick — the paper
    measures a 13% performance loss versus LAPIC timer delegation. *)

val preempt_core : t -> src_core:int -> dst_core:int -> unit
(** Send a preemption user IPI from [src_core] to [dst_core] (dispatcher
    style, Figure 2b).  The receiving core's handler re-enqueues its
    current task and reschedules. *)

val current : t -> core:int -> Task.t option
val is_idle : t -> core:int -> bool
val wakeup_hist : t -> Histogram.t

val queue_depth_series : t -> Timeseries.t
(** LC policy queue length over time (one sample per change); feed it to
    the Perfetto counter-track export in [lib/obs]. *)

(** [register_metrics t reg] registers this runtime's counters, histograms,
    and queue-depth series (under [skyloft_percpu_*]) plus every
    application's task counters, response-time histogram, and latency
    attribution (under [skyloft_app_*], labelled with the app name).  Call
    after the applications have been created.  Registration is pull-based
    and never perturbs the simulation. *)
val register_metrics : t -> ?labels:Registry.labels -> Registry.t -> unit
val task_switches : t -> int
val app_switches : t -> int
val preemptions : t -> int
val timer_ticks : t -> int

val parks : t -> int
(** Idle cores parked back to the kernel (only with [park]). *)

val unparks : t -> int
(** Parked cores woken for new work; each paid the resume cost. *)

val watchdog_rescues : t -> int
(** Stuck cores rescued by the watchdog (see {!create}'s [watchdog]). *)

val rescue_detection : t -> Histogram.t
(** Detection latency per rescue: time past the watchdog bound before the
    scan noticed the stuck core. *)

val deadline_drops : t -> int
(** Tasks killed by their spawn deadline (see {!spawn}). *)

val set_trace : t -> Trace.t -> unit
(** Record scheduling activity (run spans, preemptions, wakeups,
    application switches, faults) into [trace]; export with
    {!Skyloft_stats.Trace.to_chrome_json}. *)

(**/**)

(* The per-CPU family's seam for {!Worksteal}: the same runtime under a
   different [name] (error messages, [skyloft_<name>_*] metrics), with a
   policy built from the runtime itself so that it can charge its steals
   to the thief's next dispatch and report failed scans, which park the
   core at once after repeated failures. *)

val make :
  name:string ->
  Machine.t ->
  Kmod.t ->
  cores:int list ->
  timer_hz:int ->
  preemption:bool ->
  park:(Time.t * Time.t) option ->
  watchdog:Time.t option ->
  (t -> Sched_ops.ctor) ->
  t

val charge_steal : t -> core:int -> Time.t -> unit
val steal_failed : t -> core:int -> unit
