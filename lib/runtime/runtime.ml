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

type kind = Percpu | Centralized | Hybrid | Worksteal

let name = function
  | Percpu -> "percpu"
  | Centralized -> "centralized"
  | Hybrid -> "hybrid"
  | Worksteal -> "worksteal"

let kinds = [ Percpu; Centralized; Hybrid; Worksteal ]

type counters = {
  switches : int;
  preemptions : int;
  ticks : int;
  be_preemptions : int;
  deadline_drops : int;
  rescues : int;
  steals : int;
  failovers : int;
  mode_switches : int;
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
}

(* Percpu and Worksteal differ only in the policy, the steal counter and
   the metric names. *)
let of_percpu ?alloc pc ~steals ~register_metrics =
  let module R = Skyloft.Percpu in
  {
    create_app = (fun ~name -> R.create_app pc ~name);
    submit =
      (fun app ~name ?cpu ?service ?record ?deadline ?on_drop body ->
        R.spawn pc app ~name ?cpu ?service ?record ?deadline ?on_drop body);
    wakeup = (fun task -> R.wakeup pc task);
    attach_be =
      (fun app ~chunk ~workers -> R.attach_be_app pc ?alloc app ~chunk ~workers);
    set_core_allowance = R.set_core_allowance pc;
    congestion = (fun () -> R.congestion pc);
    allocator = (fun () -> R.allocator pc);
    set_trace = R.set_trace pc;
    register_metrics;
    queue_depth_series = R.queue_depth_series pc;
    rescue_detection = R.rescue_detection pc;
    counters =
      (fun () ->
        {
          switches = R.task_switches pc;
          preemptions = R.preemptions pc;
          ticks = R.timer_ticks pc;
          be_preemptions = R.be_preemptions pc;
          deadline_drops = R.deadline_drops pc;
          rescues = R.watchdog_rescues pc;
          steals = steals ();
          failovers = 0;
          mode_switches = 0;
        });
    percpu = Some pc;
  }

let create kind machine kmod ~cores ~quantum ?timer_hz ?watchdog ?alloc () =
  if cores = [] then invalid_arg "Runtime.create: no cores";
  let dispatcher_core = List.hd cores and worker_cores = List.tl cores in
  match kind with
  | Percpu ->
      let pc =
        Skyloft.Percpu.create machine kmod ~cores ?timer_hz ?watchdog
          (Skyloft_policies.Work_stealing.create ~quantum ())
      in
      of_percpu ?alloc pc
        ~steals:(fun () -> 0)
        ~register_metrics:(fun ?labels reg ->
          Skyloft.Percpu.register_metrics pc ?labels reg)
  | Worksteal ->
      let ws =
        Skyloft.Worksteal.create machine kmod ~cores ?timer_hz ~quantum
          ?watchdog ()
      in
      of_percpu ?alloc (Skyloft.Worksteal.percpu ws)
        ~steals:(fun () -> Skyloft.Worksteal.steals ws)
        ~register_metrics:(fun ?labels reg ->
          Skyloft.Worksteal.register_metrics ws ?labels reg)
  | Centralized | Hybrid ->
      let module R = Skyloft.Centralized in
      let percore_hz =
        if kind = Hybrid then Some (Option.value timer_hz ~default:100_000)
        else None
      in
      let rt =
        R.create machine kmod ~dispatcher_core ~worker_cores ~quantum ?alloc
          ?watchdog ?percore_hz
          (fst (Skyloft_policies.Shinjuku_shenango.create ()))
      in
      {
        create_app = (fun ~name -> R.create_app rt ~name);
        submit =
          (fun app ~name ?cpu:_ ?service ?record ?deadline ?on_drop body ->
            R.submit rt app ?service ?record ?deadline ?on_drop ~name body);
        wakeup = R.wakeup rt;
        attach_be = R.attach_be_app rt;
        set_core_allowance = R.set_core_allowance rt;
        congestion = (fun () -> R.congestion rt);
        allocator = (fun () -> R.allocator rt);
        set_trace = R.set_trace rt;
        register_metrics = (fun ?labels reg -> R.register_metrics rt ?labels reg);
        queue_depth_series = R.queue_depth_series rt;
        rescue_detection = R.rescue_detection rt;
        counters =
          (fun () ->
            {
              switches = R.dispatches rt;
              preemptions = R.preemptions rt;
              ticks = R.timer_ticks rt;
              be_preemptions = R.be_preemptions rt;
              deadline_drops = R.deadline_drops rt;
              rescues = R.watchdog_rescues rt;
              steals = 0;
              failovers = R.failovers rt;
              mode_switches = R.mode_switches rt;
            });
        percpu = None;
      }
