(* One handle over the four runtimes, built from each runtime's public
   constructor, for the benchmark's copy of the cells (see Cells) and the
   per-runtime split (see Layers).  The copy calls [create], [create_app],
   [submit] and [attach_be] through it, so every call into lib/core is a
   call the library's own experiments also make, with the same
   arguments.  The library's own runtime-neutral records
   (Scenario.run's, Placement's, Fault_sweep's) are private to their
   runners or lack the counters and queue lengths the traced and probe
   passes read. *)

module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module App = Skyloft.App
module Task = Skyloft.Task
module Allocator = Skyloft_alloc.Allocator
module Scenario = Skyloft_scenario.Scenario

(* Per-runtime scheduler counters.  Centralized and hybrid have no
   [task_switches]; their [dispatches] (one task put on a worker) stand
   in.  Only worksteal counts steals. *)
type counters = {
  switches : int;
  preemptions : int;
  ticks : int;
  steals : int;
  be_preemptions : int;
  deadline_drops : int;
  rescues : int;
  failovers : int;
}

type t = {
  name : string;
  create_app : name:string -> App.t;
  submit :
    App.t ->
    name:string ->
    ?cpu:int ->
    ?deadline:Time.t ->
    ?on_drop:(Task.t -> unit) ->
    Coro.t ->
    unit;
  attach_be : App.t -> chunk:Time.t -> workers:int -> unit;
  set_allowance : int -> unit;
  congestion : unit -> Allocator.raw;
  lc_queued : unit -> int;  (* LC tasks waiting, BE backlog excluded *)
  lc_queues : int;  (* LC run queues: one per core, or one shared *)
  allocator : unit -> Allocator.t option;
  rescue_detection : unit -> Histogram.t;
  counters : unit -> counters;
}

let kinds = Scenario.runtimes

(* The per-CPU runtimes record their LC queue length at every change. *)
let last_value series =
  match Skyloft_stats.Timeseries.last series with Some (_, v) -> v | None -> 0

(* [cores] is the runtime's whole physical range: per-CPU runtimes use
   all of it, the dispatcher runtimes take the first core as dispatcher.
   [alloc] goes to the constructor of the dispatcher runtimes and to
   [attach_be] of the per-CPU ones, as the library's experiments do. *)
let create kind machine kmod ~cores ~quantum ?watchdog ?alloc () =
  let name = Scenario.runtime_name kind in
  match kind with
  | Scenario.Percpu ->
      let module R = Skyloft.Percpu in
      let rt =
        R.create machine kmod ~cores ~timer_hz:100_000 ?watchdog
          (Skyloft_policies.Work_stealing.create ~quantum ())
      in
      {
        name;
        create_app = (fun ~name -> R.create_app rt ~name);
        submit =
          (fun app ~name ?cpu ?deadline ?on_drop body ->
            ignore
              (R.spawn rt app ~name ?cpu ~record:false ?deadline ?on_drop body));
        attach_be =
          (fun app ~chunk ~workers -> R.attach_be_app rt ?alloc app ~chunk ~workers);
        set_allowance = R.set_core_allowance rt;
        congestion = (fun () -> R.congestion rt);
        lc_queued = (fun () -> last_value (R.queue_depth_series rt));
        lc_queues = List.length cores;
        allocator = (fun () -> R.allocator rt);
        rescue_detection = (fun () -> R.rescue_detection rt);
        counters =
          (fun () ->
            {
              switches = R.task_switches rt;
              preemptions = R.preemptions rt;
              ticks = R.timer_ticks rt;
              steals = 0;
              be_preemptions = R.be_preemptions rt;
              deadline_drops = R.deadline_drops rt;
              rescues = R.watchdog_rescues rt;
              failovers = 0;
            });
      }
  | Scenario.Worksteal ->
      let module R = Skyloft.Worksteal in
      let rt =
        R.create machine kmod ~cores ~timer_hz:100_000 ~quantum ?watchdog ()
      in
      {
        name;
        create_app = (fun ~name -> R.create_app rt ~name);
        submit =
          (fun app ~name ?cpu ?deadline ?on_drop body ->
            ignore
              (R.spawn rt app ~name ?cpu ~record:false ?deadline ?on_drop body));
        attach_be =
          (fun app ~chunk ~workers -> R.attach_be_app rt ?alloc app ~chunk ~workers);
        set_allowance = R.set_core_allowance rt;
        congestion = (fun () -> R.congestion rt);
        lc_queued = (fun () -> last_value (R.queue_depth_series rt));
        lc_queues = List.length cores;
        allocator = (fun () -> R.allocator rt);
        rescue_detection = (fun () -> R.rescue_detection rt);
        counters =
          (fun () ->
            {
              switches = R.task_switches rt;
              preemptions = R.preemptions rt;
              ticks = R.timer_ticks rt;
              steals = R.steals rt;
              be_preemptions = R.be_preemptions rt;
              deadline_drops = R.deadline_drops rt;
              rescues = R.watchdog_rescues rt;
              failovers = 0;
            });
      }
  | Scenario.Centralized ->
      let module R = Skyloft.Centralized in
      let rt =
        R.create machine kmod ~dispatcher_core:(List.hd cores)
          ~worker_cores:(List.tl cores) ~quantum ?alloc ?watchdog
          (fst (Skyloft_policies.Shinjuku_shenango.create ()))
      in
      {
        name;
        create_app = (fun ~name -> R.create_app rt ~name);
        submit =
          (fun app ~name ?cpu:_ ?deadline ?on_drop body ->
            ignore (R.submit rt app ~record:false ?deadline ?on_drop ~name body));
        attach_be = (fun app ~chunk ~workers -> R.attach_be_app rt app ~chunk ~workers);
        set_allowance = R.set_core_allowance rt;
        congestion = (fun () -> R.congestion rt);
        lc_queued = (fun () -> R.queue_length rt);
        lc_queues = 1;
        allocator = (fun () -> R.allocator rt);
        rescue_detection = (fun () -> R.rescue_detection rt);
        counters =
          (fun () ->
            {
              switches = R.dispatches rt;
              preemptions = R.preemptions rt;
              ticks = 0;
              steals = 0;
              be_preemptions = R.be_preemptions rt;
              deadline_drops = R.deadline_drops rt;
              rescues = R.watchdog_rescues rt;
              failovers = R.failovers rt;
            });
      }
  | Scenario.Hybrid ->
      let module R = Skyloft.Hybrid in
      let rt =
        R.create machine kmod ~dispatcher_core:(List.hd cores)
          ~worker_cores:(List.tl cores) ~quantum ~timer_hz:100_000 ?alloc
          ?watchdog
          (fst (Skyloft_policies.Shinjuku_shenango.create ()))
      in
      {
        name;
        create_app = (fun ~name -> R.create_app rt ~name);
        submit =
          (fun app ~name ?cpu:_ ?deadline ?on_drop body ->
            ignore (R.submit rt app ~record:false ?deadline ?on_drop ~name body));
        attach_be = (fun app ~chunk ~workers -> R.attach_be_app rt app ~chunk ~workers);
        set_allowance = R.set_core_allowance rt;
        congestion = (fun () -> R.congestion rt);
        lc_queued = (fun () -> R.queue_length rt);
        lc_queues = 1;
        allocator = (fun () -> R.allocator rt);
        rescue_detection = (fun () -> R.rescue_detection rt);
        counters =
          (fun () ->
            {
              switches = R.dispatches rt;
              preemptions = R.preemptions rt;
              ticks = R.timer_ticks rt;
              steals = 0;
              be_preemptions = R.be_preemptions rt;
              deadline_drops = R.deadline_drops rt;
              rescues = R.watchdog_rescues rt;
              failovers = R.failovers rt;
            });
      }

(* Every machine core's interrupt counters, summed. *)
let interrupts machine =
  let n = Machine.n_cores machine in
  let hw = ref 0 and user = ref 0 in
  for i = 0 to n - 1 do
    let c = Machine.core machine i in
    hw := !hw + Machine.interrupts_received c;
    user := !user + Machine.user_interrupts_delivered c
  done;
  (!hw, !user)

let zero =
  {
    switches = 0;
    preemptions = 0;
    ticks = 0;
    steals = 0;
    be_preemptions = 0;
    deadline_drops = 0;
    rescues = 0;
    failovers = 0;
  }

let add a b =
  {
    switches = a.switches + b.switches;
    preemptions = a.preemptions + b.preemptions;
    ticks = a.ticks + b.ticks;
    steals = a.steals + b.steals;
    be_preemptions = a.be_preemptions + b.be_preemptions;
    deadline_drops = a.deadline_drops + b.deadline_drops;
    rescues = a.rescues + b.rescues;
    failovers = a.failovers + b.failovers;
  }
