module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Registry = Skyloft_obs.Registry

(** The work-stealing Skyloft runtime: {!Percpu} with a steal-half policy
    (Shenango §5.3 promoted to a first-class runtime).

    Each core owns a deque: the owner pushes and pops at the head (LIFO —
    the newest task's state is hottest in cache), preempted and yielded
    tasks go to the tail, and a core whose deque runs dry scans the other
    deques round-robin from a persisted per-thief cursor and takes half the
    first non-empty victim's queue in one grab
    ({!Runqueue.steal_half}).  Stealing is charged: each probed victim deque
    costs a remote cacheline touch and each migrated task a descriptor +
    stack transfer, both added to the stolen dispatch's switch cost.  A
    core whose scan finds nothing parks — immediately after repeated
    failures (the steal-storm brake), after a grace period otherwise — and
    pays the kernel wake-up on its next dispatch, Shenango's core-parking
    trade-off.

    Preemption (when a [quantum] is given) comes from the same delegated
    user-space timer ticks as {!Percpu}: ticks preempt any task past the
    quantum while local work is queued, breaking head-of-line blocking
    without touching the deque discipline. *)

type t

val create :
  Machine.t ->
  Kmod.t ->
  cores:int list ->
  ?timer_hz:int ->
  ?preemption:bool ->
  ?quantum:Time.t ->
  ?park:(Time.t * Time.t) option ->
  ?watchdog:Time.t ->
  unit ->
  t
(** Build the runtime on the isolated [cores].  When [preemption] (default
    true), every core's LAPIC timer is programmed at [timer_hz] (default
    100,000) and delegated to user space; [quantum] (default: none —
    cooperative) makes ticks preempt tasks past the quantum when local work
    is queued.

    [park = Some (idle_after, resume_cost)] (default: 5 µs grace, a Linux
    wakeup switch + 1 µs to resume) models Shenango-style core
    reallocation; [~park:None] keeps idle cores spinning like {!Percpu}.

    [watchdog] arms the same stuck-core watchdog as {!Percpu.create}. *)

val percpu : t -> Percpu.t
(** The underlying per-CPU runtime: every {!Percpu} call ([kill],
    [wakeup], [fault_current], [current], [start_utimer], ...) applies to
    it unchanged. *)

val create_app : t -> name:string -> App.t

val spawn :
  t -> App.t -> name:string -> ?cpu:int -> ?arrival:Time.t -> ?service:Time.t ->
  ?record:bool -> ?deadline:Time.t -> ?on_drop:(Task.t -> unit) -> Coro.t ->
  Task.t
(** Create a task.  [cpu] pins initial placement (default: an idle core,
    else round-robin); the task lands at the head of the target's deque.
    See {!Percpu.spawn}. *)

val attach_be_app :
  t ->
  ?alloc:Skyloft_alloc.Allocator.config ->
  App.t ->
  chunk:Time.t ->
  workers:int ->
  unit
(** Co-schedule [app] as the best-effort application, outside the LC
    deques; see {!Percpu.attach_be_app}. *)

val allocator : t -> Skyloft_alloc.Allocator.t option

val set_core_allowance : t -> int -> unit
(** Machine-level broker grant; see {!Percpu.set_core_allowance}. *)

val congestion : t -> Skyloft_alloc.Allocator.raw
val queue_depth_series : t -> Timeseries.t
val rescue_detection : t -> Histogram.t
val set_trace : t -> Trace.t -> unit

(** [register_metrics t reg] registers {!Percpu.register_metrics}' set
    under [skyloft_worksteal_*], plus steals, stolen tasks, failed scans,
    parks and unparks. *)
val register_metrics : t -> ?labels:Registry.labels -> Registry.t -> unit

val task_switches : t -> int
val preemptions : t -> int
val timer_ticks : t -> int
val be_preemptions : t -> int
val deadline_drops : t -> int
val watchdog_rescues : t -> int

val steals : t -> int
(** Successful steal-half grabs. *)

val stolen_tasks : t -> int
(** Tasks migrated by those grabs (≥ {!steals}). *)

val steal_fails : t -> int
(** Full victim scans that found nothing (the steal-storm signal). *)

val parks : t -> int
(** Idle cores parked back to the kernel. *)

val unparks : t -> int
(** Parked cores woken for new work (each paid the resume cost). *)
