module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod

(** The centralized Skyloft runtime (Figure 2b): a dedicated dispatcher
    core owns a global runqueue, assigns requests to worker cores, and
    preempts over-quantum requests with user IPIs (Shinjuku-style
    processor sharing, §5.2).

    The dispatcher is modelled as a serial resource: every operation
    (assignment, preemption send, congestion check) occupies it for the
    mechanism's cost, so a saturated dispatcher becomes the bottleneck —
    the scalability ceiling the paper attributes to centralized designs.

    The same runtime also hosts the ghOSt and original-Shinjuku baselines
    by swapping the {!mechanism} cost vector: ghOSt pays kernel-transaction
    dispatch costs and kernel-IPI preemption; Shinjuku pays posted
    interrupts.  A best-effort (BE) application can be co-scheduled:
    workers fall back to BE work when the LC queue is empty, and BE cores
    are reclaimed when congestion is detected (Shenango's core-allocation
    policy, §5.2 "Multiple workloads").

    The hybrid runtime is this runtime with its mode switch on
    ([?percore_hz] at {!create}): past a queue-depth threshold the
    dispatcher hands the workers to per-core preemption timers (the
    Figure 2a mechanism) and takes them back once the queue drains. *)

(** Cost vector of the preemption/dispatch mechanism. *)
type mechanism = {
  mech_name : string;
  dispatch_cost : Time.t;  (** dispatcher work per assignment decision *)
  preempt_send : Time.t;  (** dispatcher-side send cost *)
  preempt_delivery : Time.t;  (** send-to-handler latency at the worker *)
  preempt_receive : Time.t;  (** worker-side handling overhead *)
  worker_switch : Time.t;  (** worker-side task switch cost *)
}

val skyloft_mechanism : mechanism
(** User IPIs + user-level task switch (Table 6 / Table 7). *)

val shinjuku_mechanism : mechanism
(** Dune posted interrupts: slightly costlier delivery than user IPIs. *)

val ghost_mechanism : mechanism
(** ghOSt: transaction-commit dispatch, kernel-IPI preemption, kernel
    thread switches — the §5.2 explanation of its lower throughput and
    higher low-load tail latency. *)

(** Who schedules the workers: the serial dispatcher, or per-core timers
    with workers picking from the shared queue themselves. *)
type mode = Central | Percore

type t

val create :
  Machine.t ->
  Kmod.t ->
  dispatcher_core:int ->
  worker_cores:int list ->
  quantum:Time.t ->
  ?mechanism:mechanism ->
  ?alloc:Skyloft_alloc.Allocator.config ->
  ?immediate:bool ->
  ?watchdog:Time.t ->
  ?percore_hz:int ->
  Sched_ops.ctor ->
  t
(** [quantum <= 0] disables quantum preemption (run-to-completion).

    [alloc] configures the core allocator started by {!attach_be_app}
    (default {!Skyloft_alloc.Allocator.default_config}: Static policy at a
    5 µs interval).  [immediate] (default false) additionally preempts a BE
    worker the moment an LC request cannot be placed, without waiting for
    the next allocator tick.

    [watchdog] arms the recovery watchdog: a periodic scan (twice per
    bound) that (a) fails the dispatcher over to a worker when the serial
    dispatcher is wedged more than a bound into the future (host-kernel
    steal — {!failovers}), and (b) rescues workers still running one task
    a full bound past its expected preemption point, meaning the
    preemption user IPI was lost ({!watchdog_rescues},
    {!rescue_detection}).  Cores inside a {!Kmod.steal_core} outage are
    exempt until hand-back.  Under the mode switch a run may also last
    one percore tick period before it counts as stuck.

    [percore_hz] turns the mode switch on (the hybrid runtime): every
    worker gets a delegated timer at that rate, and a monitor samples the
    LC queue every 25 µs.  It switches to [Percore] when the depth exceeds
    twice the worker count and back to [Central] at half the worker count
    or below; the gap is the hysteresis band.  In [Percore] mode idle
    workers pick from the shared queue themselves and the ticks enforce
    the quantum.  Every transition is a [Mode_switch] trace instant.
    Without it no tick or monitor timer exists and the mode stays
    [Central].  Raises [Invalid_argument] if [percore_hz <= 0]. *)

val create_app : t -> name:string -> App.t

val attach_be_app : t -> App.t -> chunk:Time.t -> workers:int -> unit
(** Give the BE application [workers] batch worker tasks, each an endless
    sequence of [chunk]-sized compute segments, and start the core
    allocator: from here on the configured {!alloc_config} policy decides
    how many cores BE may occupy, charging the §5.4 inter-application
    switch cost for every core moved. *)

val allocator : t -> Skyloft_alloc.Allocator.t option
(** The running core allocator, once {!attach_be_app} has started it. *)

val submit :
  t ->
  App.t ->
  ?service:Time.t ->
  ?record:bool ->
  ?deadline:Time.t ->
  ?on_drop:(Task.t -> unit) ->
  name:string ->
  Coro.t ->
  Task.t
(** Enqueue a latency-critical request; in [Central] mode the dispatcher
    assigns it to a worker (preempting BE work if needed), in [Percore]
    mode an idle worker picks it up directly.

    [deadline] arms a kill timer [deadline] ns from now: a request that
    has not exited by then is forcibly terminated wherever it is (running,
    queued, in flight to a worker, or blocked), counted as a deadline drop
    in the app's summary, and [on_drop] is called — every submission is
    accounted for exactly once. *)

val wakeup : t -> Task.t -> unit
val preemptions : t -> int
val dispatches : t -> int
(** Tasks the dispatcher put on a worker ([Central] mode). *)

val queue_length : t -> int
(** Tasks currently waiting in the LC runqueue (excludes running). *)

val be_preemptions : t -> int

val mode : t -> mode
val mode_switches : t -> int
(** Mode transitions performed by the monitor (0 without the switch). *)

val timer_ticks : t -> int
(** [Percore]-mode timer interrupts handled (0 without the switch). *)

val set_core_allowance : t -> int -> unit
(** How many workers this runtime may occupy at all: a machine-level core
    broker's grant.  Allowed workers are the creation-order prefix.
    Shrinking preempts the newly capped workers, in [Central] mode over
    the usual IPI send/deliver path (an assignment already in flight still
    runs its segment — enforcement at the next scheduling point, like a
    quantum), in [Percore] mode synchronously; growing redrives dispatch
    or kicks the workers handed back.  Default [max_int] disables the
    gate. *)

val congestion : t -> Skyloft_alloc.Allocator.raw
(** The whole-runtime congestion sample a machine-level broker reads. *)

val watchdog_rescues : t -> int
(** Stuck workers rescued by the watchdog (see {!create}'s [watchdog]). *)

val failovers : t -> int
(** Dispatcher failovers performed by the watchdog. *)

val rescue_detection : t -> Skyloft_stats.Histogram.t
(** Detection latency per worker rescue: time past the allowed bound
    before the scan noticed the stuck worker. *)

val deadline_drops : t -> int
(** Tasks killed by their submit deadline (see {!submit}). *)

val set_trace : t -> Skyloft_stats.Trace.t -> unit
(** Record scheduling activity into the trace: one span per interval a
    task runs on a worker, instants for preemptions, wakeups, recovery
    (watchdog rescues, failovers, deadline drops) and allocator mode
    transitions — the same shape the per-CPU runtime emits, so the
    [lib/obs] trace-analysis passes work on either runtime. *)

val queue_depth_series : t -> Skyloft_stats.Timeseries.t
(** LC policy queue length over time (one sample per change); feed it to
    the Perfetto counter-track export in [lib/obs]. *)

(** [register_metrics t reg] registers this runtime's counters, gauges, and
    queue-depth series (under [skyloft_central_*]; under the mode switch,
    [skyloft_hybrid_*] plus the current mode and the transition and tick
    counts) plus every application's task counters, response-time
    histogram, and latency attribution (under [skyloft_app_*], labelled
    with the app name).  Call after the applications have been created.
    Registration is pull-based and never perturbs the simulation. *)
val register_metrics :
  t -> ?labels:Skyloft_obs.Registry.labels -> Skyloft_obs.Registry.t -> unit
