(* The hybrid runtime is Centralized with its mode switch on; see
   hybrid.mli for why this module remains. *)

type t = Centralized.t

let create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ?(timer_hz = 100_000) ?alloc ?watchdog ctor =
  Centralized.create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ?alloc ?watchdog ~percore_hz:timer_hz ctor

let create_app = Centralized.create_app
let submit = Centralized.submit
let attach_be_app = Centralized.attach_be_app
let set_core_allowance = Centralized.set_core_allowance
let congestion = Centralized.congestion
let queue_length = Centralized.queue_length
let allocator = Centralized.allocator
let rescue_detection = Centralized.rescue_detection
let dispatches = Centralized.dispatches
let preemptions = Centralized.preemptions
let timer_ticks = Centralized.timer_ticks
let be_preemptions = Centralized.be_preemptions
let deadline_drops = Centralized.deadline_drops
let watchdog_rescues = Centralized.watchdog_rescues
let failovers = Centralized.failovers
