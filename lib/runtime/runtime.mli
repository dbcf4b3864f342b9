module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Timeseries = Skyloft_stats.Timeseries
module Trace = Skyloft_stats.Trace
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module App = Skyloft.App
module Task = Skyloft.Task

(** One handle over the four Skyloft runtimes.

    Every consumer that runs "some runtime" — the scenario DSL, fleet
    placements, the fault sweep, the observability report, the bench —
    builds it through {!create} and drives it through the {!t} record, so
    a runtime knob or a new kind touches this module, not each consumer.

    Calls that need a knob only one caller sets go to the runtime modules
    directly: custom policies, [~preemption:false], [~park], hybrid
    depths, utimers.  The per-CPU family's underlying {!Skyloft.Percpu.t}
    is exposed ({!t.percpu}) for its per-core calls such as
    [fault_current]. *)

type kind = Percpu | Centralized | Hybrid | Worksteal

val name : kind -> string
(** ["percpu"], ["centralized"], ["hybrid"], ["worksteal"]. *)

val kinds : kind list
(** All four, in that order. *)

(** Scheduler counters, runtime-specific extras included (0 where a kind
    has no such event). *)
type counters = {
  switches : int;
      (** intra-application task switches; on centralized and hybrid, the
          dispatches (one task put on a worker) stand in *)
  preemptions : int;
  ticks : int;  (** user-space timer ticks (0 on centralized) *)
  be_preemptions : int;
  deadline_drops : int;
  rescues : int;  (** watchdog rescues *)
  steals : int;  (** steal-half grabs (worksteal) *)
  failovers : int;  (** dispatcher failovers (centralized, hybrid) *)
  mode_switches : int;  (** dispatch-mode transitions (hybrid) *)
}

type t = {
  create_app : name:string -> App.t;
  submit :
    App.t ->
    name:string ->
    ?cpu:int ->
    ?service:Time.t ->
    ?record:bool ->
    ?deadline:Time.t ->
    ?on_drop:(Task.t -> unit) ->
    Coro.t ->
    Task.t;
      (** [Percpu.spawn] / [Centralized.submit]; [cpu] pins placement on
          the per-CPU kinds and is ignored by the dispatcher kinds *)
  wakeup : Task.t -> unit;
  attach_be : App.t -> chunk:Time.t -> workers:int -> unit;
  set_core_allowance : int -> unit;
  congestion : unit -> Allocator.raw;
  allocator : unit -> Allocator.t option;
  set_trace : Trace.t -> unit;
  register_metrics : ?labels:Registry.labels -> Registry.t -> unit;
  queue_depth_series : Timeseries.t;
  rescue_detection : Histogram.t;
  counters : unit -> counters;
  percpu : Skyloft.Percpu.t option;
      (** the per-CPU runtime under percpu and worksteal *)
}

val create :
  kind ->
  Machine.t ->
  Kmod.t ->
  cores:int list ->
  quantum:Time.t ->
  ?timer_hz:int ->
  ?watchdog:Time.t ->
  ?alloc:Allocator.config ->
  unit ->
  t
(** Build a runtime of [kind] on [cores], its whole physical range: the
    per-CPU kinds run on all of it, the dispatcher kinds take the first
    core as dispatcher and the rest as workers.  Each kind gets the policy
    it uses everywhere: [Work_stealing ~quantum] on percpu, the steal-half
    deques preempting at [quantum] on worksteal, and [Shinjuku_shenango]
    with [quantum] on centralized and hybrid.  [timer_hz] (default
    100,000) programs the per-CPU timers of every kind but centralized;
    [watchdog] arms the stuck-core watchdog.  [alloc] configures the core
    allocator the BE application gets: it goes to the constructor of the
    dispatcher kinds and to [attach_be] of the per-CPU ones.  Raises
    [Invalid_argument] on an empty [cores]. *)
