(* Per-layer host costs, measured from outside through each layer's
   public functions.  Microbenches take their size from traffic the
   caller measured in the workload (heap depth, run-queue depth, tenant
   count), and the caller reports that size beside the cost.  Times are
   unscaled process CPU time: each number is the median of several
   batches of at least [batch_cpu_s]. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Timeseries = Skyloft_stats.Timeseries
module Trace = Skyloft_stats.Trace
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Broker = Skyloft_alloc.Broker
module Arrival = Skyloft_scenario.Arrival
module Scenario = Skyloft_scenario.Scenario
module Loadgen = Skyloft_net.Loadgen

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let batch_cpu_s = 0.01
let batches = 7

(* Host ns per call of [op], which performs [per_call] operations. *)
let per_op ?(per_call = 1) op =
  let rec calibrate n =
    let t0 = Sys.time () in
    for _ = 1 to n do
      op ()
    done;
    if Sys.time () -. t0 >= batch_cpu_s || n >= 1 lsl 26 then n else calibrate (n * 4)
  in
  let n = calibrate 16 in
  median
    (List.init batches (fun _ ->
         let t0 = Sys.time () in
         for _ = 1 to n do
           op ()
         done;
         (Sys.time () -. t0) *. 1e9 /. float_of_int (n * per_call)))

(* ---- lib/sim ---------------------------------------------------------------- *)

(* One schedule plus one pop on a heap holding [depth] live events; the
   gaps are drawn up front so the loop times the heap alone. *)
let eventq_ns ~seed ~depth =
  let rng = Rng.create ~seed in
  let gaps = Array.init 4096 (fun _ -> 1 + Rng.int rng (4 * (depth + 1))) in
  let q = Eventq.create () in
  for i = 1 to depth do
    ignore (Eventq.schedule q ~at:gaps.(i land 4095) ())
  done;
  let i = ref 0 in
  per_op (fun () ->
      Eventq.pop_exn q;
      incr i;
      ignore (Eventq.schedule q ~at:(Eventq.last_time q + gaps.(!i land 4095)) ()))

(* One event fired through [Engine.run]: pop, callback, re-arm, with
   [depth] other events standing in the heap. *)
let engine_fire_ns ~depth =
  let engine = Engine.create () in
  for i = 1 to depth do
    ignore (Engine.at engine (max_int / 2 + i) ignore)
  done;
  ignore (Engine.recurring engine ~period:1 (fun () -> true));
  let per_call = 256 in
  per_op ~per_call (fun () -> Engine.run ~max_events:per_call engine)

let dist_sample_ns ~seed dist =
  let rng = Rng.create ~seed in
  let sink = ref 0 in
  let ns = per_op (fun () -> sink := !sink + Dist.sample dist rng) in
  ignore (Sys.opaque_identity !sink);
  ns

(* ---- lib/net: one arrival-time draw ---------------------------------------- *)

let loadgen_draw_ns ~seed arrival =
  let next = Arrival.sampler arrival (Rng.create ~seed) in
  let now = ref 0 in
  per_op (fun () ->
      match next ~now:!now with Some t -> now := t | None -> assert false)

(* ---- lib/stats ------------------------------------------------------------------ *)

let histogram_record_ns ~seed dist =
  let rng = Rng.create ~seed in
  let values = Array.init 4096 (fun _ -> Dist.sample dist rng) in
  let h = Histogram.create () in
  let i = ref 0 in
  per_op (fun () ->
      Histogram.record h values.(!i land 4095);
      incr i)

let trace_push_ns () =
  let tr = Trace.create ~capacity:4096 () in
  let at = ref 0 in
  per_op (fun () ->
      Trace.span tr ~core:(!at land 7) ~app:0 ~name:"req" ~start:!at ~stop:(!at + 5);
      at := !at + 10)

(* The capacity [Timeseries.create ()] allocates, which is what
   Runtime_core, Allocator and Broker call: fill a fresh series with
   alternating values until it starts evicting. *)
let timeseries_default_capacity () =
  let s = Timeseries.create () in
  let i = ref 0 in
  while Timeseries.dropped s = 0 do
    Timeseries.record s ~at:!i (!i land 1);
    incr i
  done;
  Timeseries.length s

let timeseries_create_us () =
  per_op (fun () -> ignore (Sys.opaque_identity (Timeseries.create ()))) /. 1e3

(* ---- lib/policies: one enqueue plus one dequeue at run-queue [depth] ----- *)

(* Work stealing is percpu's policy, one queue per core; Shinjuku-Shenango
   is the one shared queue of centralized and hybrid. *)
let work_stealing = Skyloft_policies.Work_stealing.create ~quantum:(Time.us 30) ()
let shinjuku_shenango = fst (Skyloft_policies.Shinjuku_shenango.create ())

let policy_ns ctor ~depth =
  let clock = ref 0 in
  let view =
    { Sched_ops.cores = Array.init 8 Fun.id; is_idle = (fun _ -> false); now = (fun () -> !clock) }
  in
  let p : Sched_ops.instance = ctor view in
  let tasks =
    Array.init (depth + 1) (fun id ->
        let t = Task.create ~id ~app:0 ~name:"req" Coro.Exit in
        p.task_init t;
        t)
  in
  for i = 0 to depth - 1 do
    p.task_enqueue ~cpu:0 ~reason:Sched_ops.Enq_new tasks.(i)
  done;
  let spare = ref tasks.(depth) in
  per_op (fun () ->
      incr clock;
      p.task_enqueue ~cpu:0 ~reason:Sched_ops.Enq_new !spare;
      match p.task_dequeue ~cpu:0 with Some t -> spare := t | None -> assert false)

(* ---- lib/alloc ----------------------------------------------------------------- *)

(* A congestion signal that flips every eight samples, so decisions move. *)
let synthetic_sample phase ~lc () =
  incr phase;
  let congested = !phase land 8 <> 0 in
  {
    Allocator.runq_len = (if not lc then 100 else if congested then 4 else 0);
    oldest_delay = (if lc && congested then Time.us 20 else 0);
    busy_ns = !phase * Time.us (if congested then 48 else 5);
  }

let broker_tick_ns ~tenants =
  let engine = Engine.create () in
  let b = Broker.create ~engine ~capacity:(2 * tenants) () in
  let phase = ref 0 in
  for i = 0 to tenants - 1 do
    let lc = i mod 4 <> 3 in
    Broker.register b ~tenant:i ~name:(Printf.sprintf "t%02d" i)
      ~kind:(if lc then Alloc_policy.Lc else Alloc_policy.Be)
      ~policy:(if lc then Alloc_policy.delay () else Alloc_policy.utilization ())
      ~bounds:{ Allocator.guaranteed = 1; burstable = 4 }
      ~initial:1 ~sample:(synthetic_sample phase ~lc)
      ~apply:(fun ~granted:_ ~delta:_ -> 0)
  done;
  per_op (fun () -> Broker.tick b)

let allocator_tick_ns ~cores =
  let engine = Engine.create () in
  let a =
    Allocator.create ~engine ~policy:(Alloc_policy.delay ()) ~interval:(Time.us 5)
      ~total_cores:cores ()
  in
  let phase = ref 0 in
  Allocator.register a ~app:0 ~name:"lc" ~kind:Alloc_policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = cores }
    ~initial:(cores / 2) ~sample:(synthetic_sample phase ~lc:true)
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.register a ~app:1 ~name:"be" ~kind:Alloc_policy.Be
    ~bounds:{ Allocator.guaranteed = 1; burstable = cores }
    ~initial:(cores / 2) ~sample:(synthetic_sample phase ~lc:false)
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  per_op (fun () -> Allocator.tick a)

(* ---- lib/core: set-up, idle and marginal cost per runtime ---------------- *)

(* What the split is sized from: one workload's core width per runtime
   (dispatcher core included), its quantum and watchdog, and its LC
   arrival process and service distribution. *)
type traffic = {
  width : Scenario.runtime -> int;
  quantum : Time.t;
  watchdog : Time.t option;
  arrival : Arrival.t;
  service : Dist.t;
}

(* The loaded window lasts as long as [split_requests] arrivals take at
   the arrival process's mean rate; the empty window is as long. *)
let split_requests = 4000
let split_reps = 5

let split_window tr =
  int_of_float (float_of_int split_requests /. Arrival.mean_rate tr.arrival *. 1e9)

type split = {
  setup_us : float;
  idle_ns_per_sim_us : float;
  idle_words_per_sim_us : float;
  idle_events_per_sim_us : float;
  marginal_ns_per_request : float;
  marginal_words_per_request : float;
  requests : int;  (* arrivals in the loaded window *)
}

(* A bare runtime at the workload's width, with one LC app. *)
let build tr kind =
  let engine = Engine.create () in
  let width = tr.width kind in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:width)
  in
  let kmod = Kmod.create machine in
  let rt =
    Rt.create kind machine kmod ~cores:(List.init width Fun.id) ~quantum:tr.quantum
      ?watchdog:tr.watchdog ()
  in
  let app = rt.create_app ~name:"lc" in
  (engine, rt, app)

(* Host seconds, minor words and events of one window on a fresh
   runtime, and the requests that arrived in it.  A loaded window drives
   the workload's arrival process and service distribution, drawn from
   [seed]; an empty one has no arrivals. *)
let window tr kind ~seed ~loaded =
  let engine, rt, app = build tr kind in
  let arrived = ref 0 in
  if loaded then begin
    let services = Rng.create ~seed:(seed + 1) in
    Loadgen.stream engine
      ~next:(Arrival.sampler tr.arrival (Rng.create ~seed))
      (fun _ ->
        incr arrived;
        rt.submit app ~name:"req"
          (Coro.Compute (Dist.sample tr.service services, fun () -> Coro.Exit)))
  end;
  Gc.full_major ();
  let e0 = Engine.events_fired engine in
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  Engine.run ~until:(split_window tr) engine;
  let t1 = Sys.time () in
  let w1 = Gc.minor_words () in
  (t1 -. t0, w1 -. w0, Engine.events_fired engine - e0, !arrived)

let split tr ~seed kind =
  let setup =
    median
      (List.init split_reps (fun _ ->
           Gc.full_major ();
           let t0 = Sys.time () in
           ignore (Sys.opaque_identity (build tr kind));
           Sys.time () -. t0))
  in
  let idle = List.init split_reps (fun _ -> window tr kind ~seed ~loaded:false) in
  let loaded = List.init split_reps (fun _ -> window tr kind ~seed ~loaded:true) in
  let med f l = median (List.map f l) in
  let time (t, _, _, _) = t and words (_, w, _, _) = w in
  let events (_, _, e, _) = float_of_int e in
  let _, _, _, requests = List.hd loaded in
  let sim_us = Time.to_us_float (split_window tr) in
  let n = float_of_int (max 1 requests) in
  {
    setup_us = setup *. 1e6;
    idle_ns_per_sim_us = med time idle *. 1e9 /. sim_us;
    idle_words_per_sim_us = med words idle /. sim_us;
    idle_events_per_sim_us = med events idle /. sim_us;
    marginal_ns_per_request = (med time loaded -. med time idle) *. 1e9 /. n;
    marginal_words_per_request = (med words loaded -. med words idle) /. n;
    requests;
  }
