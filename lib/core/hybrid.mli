(** The hybrid runtime under its old module name: {!Centralized} with the
    mode switch on.

    Only the host-cost benchmark ([perfbench/rt.ml]) calls it.  That
    benchmark is frozen so its numbers stay comparable across versions,
    so this shim keeps exactly the names it uses.  Everything else builds
    the hybrid with [Centralized.create ~percore_hz] or through the
    runtime handle ([Runtime.Hybrid]). *)

type t = Centralized.t

val create :
  Skyloft_hw.Machine.t ->
  Skyloft_kernel.Kmod.t ->
  dispatcher_core:int ->
  worker_cores:int list ->
  quantum:Skyloft_sim.Time.t ->
  ?timer_hz:int ->
  ?alloc:Skyloft_alloc.Allocator.config ->
  ?watchdog:Skyloft_sim.Time.t ->
  Sched_ops.ctor ->
  t
(** [Centralized.create ~percore_hz:timer_hz] (default 100 kHz). *)

val create_app : t -> name:string -> App.t

val submit :
  t ->
  App.t ->
  ?service:Skyloft_sim.Time.t ->
  ?record:bool ->
  ?deadline:Skyloft_sim.Time.t ->
  ?on_drop:(Task.t -> unit) ->
  name:string ->
  Skyloft_sim.Coro.t ->
  Task.t

val attach_be_app : t -> App.t -> chunk:Skyloft_sim.Time.t -> workers:int -> unit
val set_core_allowance : t -> int -> unit
val congestion : t -> Skyloft_alloc.Allocator.raw
val queue_length : t -> int
val allocator : t -> Skyloft_alloc.Allocator.t option
val rescue_detection : t -> Skyloft_stats.Histogram.t
val dispatches : t -> int
val preemptions : t -> int
val timer_ticks : t -> int
val be_preemptions : t -> int
val deadline_drops : t -> int
val watchdog_rescues : t -> int
val failovers : t -> int
