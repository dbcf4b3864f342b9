(* Allocation gates for the simulator's periodic control loops — the PRNG
   draw, the core allocator's tick, the UINTR post/recognise path and the
   idle timer-tick cycle of the per-CPU, work-stealing and hybrid runtimes
   — and for its per-request path: a spawn's idle-core search and the
   words per completed request of each runtime kind.
   Each gate bounds minor-heap words, which do not depend on the host, so
   a regression that reintroduces a per-tick closure, list or boxed field
   fails here on any machine.  Run on their own with
   [dune exec test/test_main.exe -- test zero_alloc]. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Allocator = Skyloft_alloc.Allocator
module Policy = Skyloft_alloc.Policy
module Percpu = Skyloft.Percpu
module Worksteal = Skyloft.Worksteal
module Centralized = Skyloft.Centralized
module Runtime = Skyloft_runtime.Runtime

(* Minor words [f] allocates per call over [n] calls, after a warm-up so
   one-time growth (hash tables, lazily built closures) is not counted.
   [Gc.minor_words] returns its float unboxed, so the reads add nothing. *)
let words_per_call ?(warmup = 100) ~n f =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let gate name ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.2f minor words per call (bound %.2f)" name words bound

(* ---- lib/sim: Rng ------------------------------------------------------- *)

(* The xoshiro state is unboxed, so an integer draw allocates nothing.
   [bits64] and [uniform] return a boxed int64 (3 words) and a boxed float
   (2 words) to a caller in another module; the step itself adds none. *)
let test_rng () =
  let rng = Rng.create ~seed:7 in
  let sink = ref 0 in
  gate "Rng.int" ~bound:0.0
    (words_per_call ~n:10_000 (fun () -> sink := !sink + Rng.int rng 1000));
  gate "Rng.bool" ~bound:0.0
    (words_per_call ~n:10_000 (fun () -> if Rng.bool rng then incr sink));
  gate "Rng.bits64" ~bound:3.0
    (words_per_call ~n:10_000 (fun () ->
         ignore (Sys.opaque_identity (Rng.bits64 rng))));
  gate "Rng.uniform" ~bound:2.0
    (words_per_call ~n:10_000 (fun () ->
         ignore (Sys.opaque_identity (Rng.uniform rng))));
  (* [uniform t < p] compared inside Rng: the fault injector's per-IPI
     draw returns an unboxed bool. *)
  gate "Rng.bernoulli" ~bound:0.0
    (words_per_call ~n:10_000 (fun () -> if Rng.bernoulli rng 0.3 then incr sink))

(* ---- lib/alloc: Allocator.tick ------------------------------------------ *)

(* An LC + BE pair whose busy time advances every tick, so both signals
   change (a fresh signal per app per tick) while no decision moves a core:
   LC has an empty queue and no cores, BE already holds its burstable
   ceiling.  The samples come from a prebuilt ring so the gate counts the
   allocator's own words, not the runtime's sampling.  What remains is the
   two immutable signals (6 words plus a 2-word boxed utilization each). *)
let test_allocator_tick () =
  let engine = Engine.create () in
  let a =
    Allocator.create ~engine ~policy:(Policy.delay ()) ~interval:(Time.us 5)
      ~total_cores:4 ()
  in
  let ring busy_step =
    Array.init 64 (fun i ->
        { Allocator.runq_len = 0; oldest_delay = 0; busy_ns = i * i * busy_step })
  in
  let lc_ring = ring 10 and be_ring = ring 30 in
  let k = ref 0 in
  Allocator.register a ~app:0 ~name:"lc" ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 4 }
    ~initial:0
    ~sample:(fun () -> lc_ring.(!k land 63))
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.register a ~app:1 ~name:"be" ~kind:Policy.Be
    ~bounds:{ Allocator.guaranteed = 1; burstable = 4 }
    ~initial:4
    ~sample:(fun () -> be_ring.(!k land 63))
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  let words =
    words_per_call ~n:10_000 (fun () ->
        incr k;
        Allocator.tick a)
  in
  Alcotest.(check int) "no transition" 0 (Allocator.grants a + Allocator.yields a);
  gate "Allocator.tick (LC+BE, no transition)" ~bound:16.0 words

(* ---- lib/hw: UINTR post + recognise -------------------------------------- *)

(* SENDUIPIs of the lowest and highest user vectors to an installed
   context, and their delivery: both PIR bits are posted, the notification
   IPIs cross the engine, and the receiver moves PIR into UIRR and runs the
   handler once per vector, highest first. *)
let test_uintr () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let ctx = Machine.uintr_create_ctx () in
  let handled = ref 0 and last = ref (-1) in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification
    (fun ~uvec ->
      handled := !handled + uvec + 1;
      last := uvec);
  Machine.uintr_install machine ~core:1 ctx;
  let words =
    words_per_call ~n:10_000 (fun () ->
        Machine.senduipi machine ~src_core:0 ctx ~uvec:63;
        Machine.senduipi machine ~src_core:0 ctx ~uvec:0;
        Engine.run engine)
  in
  Alcotest.(check int) "every post recognised" (65 * 10_100) !handled;
  Alcotest.(check int) "uvec 0 handled after uvec 63" 0 !last;
  gate "UINTR post + recognise" ~bound:0.0 words

(* ---- lib/core: idle timer-tick cycles ------------------------------------ *)

(* Words per fired event over 1 ms of virtual time, after a 1 ms warm-up
   (first scans, park timers, lazily grown queues). *)
let idle_words_per_event engine =
  Engine.run ~until:(Time.ms 1) engine;
  let e0 = Engine.events_fired engine in
  let w0 = Gc.minor_words () in
  Engine.run ~until:(Time.ms 2) engine;
  let w1 = Gc.minor_words () in
  let events = Engine.events_fired engine - e0 in
  if events < 100 then Alcotest.failf "only %d events in the idle window" events;
  (w1 -. w0) /. float_of_int events

let machine cores =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:cores)
  in
  (engine, machine, Kmod.create machine)

let test_idle_percpu () =
  let engine, machine, kmod = machine 4 in
  let rt =
    Percpu.create machine kmod ~cores:[ 0; 1; 2; 3 ] ~watchdog:(Time.us 200)
      (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 30) ())
  in
  ignore (Percpu.create_app rt ~name:"lc");
  gate "Percpu idle tick" ~bound:1.0 (idle_words_per_event engine)

let test_idle_worksteal () =
  let engine, machine, kmod = machine 4 in
  let rt =
    Worksteal.create machine kmod ~cores:[ 0; 1; 2; 3 ] ~quantum:(Time.us 30)
      ~watchdog:(Time.us 200) ()
  in
  ignore (Worksteal.create_app rt ~name:"lc");
  gate "Worksteal idle tick" ~bound:1.0 (idle_words_per_event engine)

let test_idle_hybrid_be () =
  let engine, machine, kmod = machine 8 in
  let rt =
    Centralized.create machine kmod ~dispatcher_core:0
      ~worker_cores:[ 1; 2; 3; 4; 5; 6; 7 ] ~quantum:(Time.us 30)
      ~percore_hz:100_000
      (Skyloft_policies.Fifo.create ())
  in
  ignore (Centralized.create_app rt ~name:"lc");
  let be = Centralized.create_app rt ~name:"batch" in
  Centralized.attach_be_app rt be ~chunk:(Time.ms 10) ~workers:7;
  gate "hybrid + BE idle tick" ~bound:1.0 (idle_words_per_event engine)

(* ---- lib/core: the per-request path -------------------------------------- *)

(* The idle-core search on a spawn: 16 cores, each running a long pinned
   task, so every spawn's search probes all 16 units and finds none idle.
   What remains is the task record itself (32 words): the O(1) idle
   probes, the intrusive enqueue and the congestion probe's int ring add
   nothing.  Rebuilding the view per search, with an all-units scan per
   probed core, cost 272 words per spawn here. *)
let test_spawn_busy_percpu () =
  let engine, machine, kmod = machine 16 in
  let cores = List.init 16 Fun.id in
  let rt =
    Percpu.create machine kmod ~cores (Skyloft_policies.Fifo.create ())
  in
  let app = Percpu.create_app rt ~name:"lc" in
  List.iter
    (fun cpu ->
      ignore
        (Percpu.spawn rt app ~name:"long" ~cpu ~record:false
           (Skyloft_sim.Coro.compute_then_exit (Time.s 1))))
    cores;
  Engine.run ~until:(Time.us 10) engine;
  List.iter
    (fun core ->
      if Percpu.is_idle rt ~core then Alcotest.failf "core %d still idle" core)
    cores;
  let body = Skyloft_sim.Coro.Exit in
  let words =
    words_per_call ~n:10_000 (fun () ->
        ignore (Percpu.spawn rt app ~name:"req" ~cpu:0 ~record:false body))
  in
  gate "Percpu.spawn onto 16 busy cores" ~bound:34.0 words

(* Words per completed request, by runtime kind, through [Runtime.create]:
   a closed loop of 6 clients on 4 cores, each 5 us request resubmitting
   itself at completion, recorded (summary + attribution) as the scenario
   runners do.  1 ms of warm-up, then 4 ms measured.  The request body is
   one preallocated value, so the words are the runtime's own: the task
   record (32), the dequeued and the running task's options, and the
   start-of-execution event's closure; the dispatcher kinds add the
   dispatcher's assignment event.  Per-push runqueue nodes, per-task exit
   hooks and a per-enqueue [Queue] cell made it 229 (per-CPU kinds) and
   103 (dispatcher kinds). *)
let words_per_request kind =
  let engine, machine, kmod = machine 4 in
  let rt =
    Runtime.create kind machine kmod ~cores:[ 0; 1; 2; 3 ] ~quantum:(Time.us 30) ()
  in
  let app = rt.Runtime.create_app ~name:"lc" in
  let service = Time.us 5 in
  let completed = ref 0 in
  let rec resubmit () =
    incr completed;
    ignore (rt.Runtime.submit app ~name:"req" ~service (Lazy.force req));
    Skyloft_sim.Coro.Exit
  and req = lazy (Skyloft_sim.Coro.Compute (service, resubmit)) in
  for _ = 1 to 6 do
    ignore (rt.Runtime.submit app ~name:"req" ~service (Lazy.force req))
  done;
  Engine.run ~until:(Time.ms 1) engine;
  let c0 = !completed and w0 = Gc.minor_words () in
  Engine.run ~until:(Time.ms 5) engine;
  let w1 = Gc.minor_words () in
  let n = !completed - c0 in
  if n < 1_000 then Alcotest.failf "%s: only %d completions" (Runtime.name kind) n;
  (w1 -. w0) /. float_of_int n

let test_request_path () =
  List.iter
    (fun (kind, bound) ->
      gate
        (Printf.sprintf "%s: words per completed request" (Runtime.name kind))
        ~bound (words_per_request kind))
    [
      (Runtime.Percpu, 48.0);
      (Runtime.Centralized, 56.0);
      (Runtime.Hybrid, 56.0);
      (Runtime.Worksteal, 48.0);
    ]

let suite =
  [
    Alcotest.test_case "rng: draws allocate nothing" `Quick test_rng;
    Alcotest.test_case "allocator: tick without transition" `Quick
      test_allocator_tick;
    Alcotest.test_case "machine: uintr post + recognise" `Quick test_uintr;
    Alcotest.test_case "percpu: idle tick" `Quick test_idle_percpu;
    Alcotest.test_case "worksteal: idle tick" `Quick test_idle_worksteal;
    Alcotest.test_case "hybrid: idle tick with a BE tenant" `Quick
      test_idle_hybrid_be;
    Alcotest.test_case "percpu: spawn onto busy cores" `Quick
      test_spawn_busy_percpu;
    Alcotest.test_case "runtimes: words per completed request" `Quick
      test_request_path;
  ]
