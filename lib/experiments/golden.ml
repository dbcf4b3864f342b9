module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module Centralized = Skyloft.Centralized
module Worksteal = Skyloft.Worksteal
module Trace = Skyloft_stats.Trace
module Plan = Skyloft_fault.Plan
module Injector = Skyloft_fault.Injector

(** Golden determinism fingerprints.

    Each entry is a digest of everything request- or trace-visible in one
    fixed-seed run: the full Chrome-JSON trace of a small faulty run per
    runtime, the obs-report fingerprint (trace + attribution + queue
    depth), and every field of a fault-sweep point.  The values are
    recorded in [test/test_determinism.ml]; any refactor that changes a
    single scheduling decision, cost charge, or trace byte at the same
    seed fails that test.  Regenerate intentionally with
    [skyloft_run golden] after a behaviour-changing (not
    behaviour-preserving) change. *)

(* A small per-CPU run with IPI loss, core steals and the watchdog armed,
   fully traced; returns the rendered Chrome JSON. *)
let traced_percpu ~seed =
  (* app ids leak into the trace's pid fields; per-run allocation in
     Runtime_core labels the app identically in every run *)
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4)
  in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.create machine kmod ~cores:[ 0; 1; 2; 3 ] ~watchdog:(Time.us 100)
      (Skyloft_policies.Fifo.create ())
  in
  let trace = Trace.create () in
  Percpu.set_trace rt trace;
  let rng = Rng.create ~seed in
  let inj = Injector.create ~engine ~rng ~trace () in
  Injector.arm inj
    { Injector.machine; kmod = Some kmod; nic = None; cores = [ 0; 1; 2; 3 ];
      poison = None }
    [
      Plan.ipi_loss ~p_drop:0.3 ~p_delay:0.3 ~delay:(Time.us 20) ();
      Plan.core_steal ~period:(Time.us 200) ~duration:(Time.us 50) ();
    ];
  let app = Percpu.create_app rt ~name:"a" in
  for i = 0 to 39 do
    ignore
      (Engine.at engine (i * Time.us 25) (fun () ->
           ignore
             (Percpu.spawn rt app
                ~name:(Printf.sprintf "t%d" i)
                (Coro.Compute (Time.us 10 + (i mod 7 * Time.us 4), fun () -> Coro.Exit)))))
  done;
  Engine.run ~until:(Time.ms 3) engine;
  (Trace.to_chrome_json trace, Injector.injected inj)

(* The work-stealing counterpart: every task lands on core 0 so the other
   deques run dry and the trace covers steal-half grabs, failed scans and
   the park/unpark path, under the same fault classes. *)
let traced_worksteal ~seed =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4)
  in
  let kmod = Kmod.create machine in
  let rt =
    Worksteal.create machine kmod ~cores:[ 0; 1; 2; 3 ] ~quantum:(Time.us 30)
      ~watchdog:(Time.us 100) ()
  in
  let trace = Trace.create () in
  Worksteal.set_trace rt trace;
  let rng = Rng.create ~seed in
  let inj = Injector.create ~engine ~rng ~trace () in
  Injector.arm inj
    { Injector.machine; kmod = Some kmod; nic = None; cores = [ 0; 1; 2; 3 ];
      poison = None }
    [
      Plan.ipi_loss ~p_drop:0.3 ~p_delay:0.3 ~delay:(Time.us 20) ();
      Plan.core_steal ~period:(Time.us 200) ~duration:(Time.us 50) ();
    ];
  let app = Worksteal.create_app rt ~name:"a" in
  for i = 0 to 39 do
    ignore
      (Engine.at engine (i * Time.us 25) (fun () ->
           ignore
             (Worksteal.spawn rt app ~cpu:0
                ~name:(Printf.sprintf "t%d" i)
                (Coro.Compute (Time.us 10 + (i mod 7 * Time.us 4), fun () -> Coro.Exit)))))
  done;
  Engine.run ~until:(Time.ms 3) engine;
  (Trace.to_chrome_json trace, Injector.injected inj, Worksteal.steals rt)

(* The centralized counterpart: dispatcher + four workers under the same
   fault classes, quantum preemption and the watchdog armed. *)
let traced_centralized ~seed =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:5)
  in
  let kmod = Kmod.create machine in
  let rt =
    Centralized.create machine kmod ~dispatcher_core:0
      ~worker_cores:[ 1; 2; 3; 4 ] ~quantum:(Time.us 30)
      ~watchdog:(Time.us 200)
      (Skyloft_policies.Shinjuku.create ())
  in
  let trace = Trace.create () in
  Centralized.set_trace rt trace;
  let rng = Rng.create ~seed in
  let inj = Injector.create ~engine ~rng ~trace () in
  Injector.arm inj
    { Injector.machine; kmod = Some kmod; nic = None;
      cores = [ 0; 1; 2; 3; 4 ]; poison = None }
    [
      Plan.ipi_loss ~p_drop:0.3 ~p_delay:0.3 ~delay:(Time.us 20) ();
      Plan.core_steal ~period:(Time.us 200) ~duration:(Time.us 50) ();
    ];
  let app = Centralized.create_app rt ~name:"a" in
  for i = 0 to 39 do
    ignore
      (Engine.at engine (i * Time.us 25) (fun () ->
           ignore
             (Centralized.submit rt app
                ~name:(Printf.sprintf "t%d" i)
                (Coro.Compute (Time.us 10 + (i mod 7 * Time.us 4), fun () -> Coro.Exit)))))
  done;
  Engine.run ~until:(Time.ms 3) engine;
  (Trace.to_chrome_json trace, Injector.injected inj)

(* The hybrid under the same fault classes, with a mid-run burst deep
   enough to cross the hysteresis band — the golden covers both dispatch
   modes and the [Mode_switch] instants between them. *)
let traced_hybrid ~seed =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:5)
  in
  let kmod = Kmod.create machine in
  let rt =
    Centralized.create machine kmod ~dispatcher_core:0
      ~worker_cores:[ 1; 2; 3; 4 ] ~quantum:(Time.us 30)
      ~watchdog:(Time.us 200) ~percore_hz:100_000
      (fst (Skyloft_policies.Shinjuku_shenango.create ()))
  in
  let trace = Trace.create () in
  Centralized.set_trace rt trace;
  let rng = Rng.create ~seed in
  let inj = Injector.create ~engine ~rng ~trace () in
  Injector.arm inj
    { Injector.machine; kmod = Some kmod; nic = None;
      cores = [ 0; 1; 2; 3; 4 ]; poison = None }
    [
      Plan.ipi_loss ~p_drop:0.3 ~p_delay:0.3 ~delay:(Time.us 20) ();
      Plan.core_steal ~period:(Time.us 200) ~duration:(Time.us 50) ();
    ];
  let app = Centralized.create_app rt ~name:"a" in
  let submit i =
    ignore
      (Centralized.submit rt app
         ~name:(Printf.sprintf "t%d" i)
         (Coro.Compute (Time.us 10 + (i mod 7 * Time.us 4), fun () -> Coro.Exit)))
  in
  for i = 0 to 39 do
    ignore (Engine.at engine (i * Time.us 25) (fun () -> submit i))
  done;
  (* the burst: 20 requests land together, pushing the queue past the
     hi threshold (2x the workers) so the monitor flips to percore *)
  ignore
    (Engine.at engine (Time.ms 1 + Time.us 10) (fun () ->
         for i = 100 to 119 do
           submit i
         done));
  Engine.run ~until:(Time.ms 3) engine;
  (Trace.to_chrome_json trace, Injector.injected inj, Centralized.mode_switches rt)

(* Every field of the point, pinned down to the last counter. *)
let fault_point_string (p : Fault_sweep.point) =
  Printf.sprintf
    "%s|%.6f|%.6f|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%.6f|%.6f|%d|%d"
    p.Fault_sweep.runtime p.Fault_sweep.rate p.Fault_sweep.p99_us
    p.Fault_sweep.submitted p.Fault_sweep.completed p.Fault_sweep.gave_up
    p.Fault_sweep.net_drops p.Fault_sweep.lost p.Fault_sweep.attempts
    p.Fault_sweep.deadline_drops p.Fault_sweep.rescues p.Fault_sweep.failovers
    p.Fault_sweep.degradations p.Fault_sweep.detect_p50_us
    p.Fault_sweep.detect_p99_us p.Fault_sweep.injected p.Fault_sweep.steals

let digest s = Digest.to_hex (Digest.string s)

(* Fixed seeds and durations: golden values must not depend on the CLI
   config, only on the code. *)
let trace_seed = 1234
let sweep_config =
  { Config.duration = Time.ms 5; seed = 11; jobs = 1; requests = None }

let sweep_rate = 0.05

let obs_config =
  { Config.duration = Time.ms 5; seed = 7; jobs = 1; requests = None }

(* Scale cells run tiny compared to the real sweep (30k requests) but
   through the identical compile-and-run path; the digest covers every
   count, histogram summary and allocator total in the cell. *)
let scale_seed = 5
let scale_requests = 30_000

(* The machine-level obs point: full brokered fleet with all three tenant
   faults, digest over the machine trace JSON (spans + broker instants +
   allowance counter tracks) and the placement digest. *)
let obs_machine_seed = 7
let obs_machine_requests = 400

(* The Shenango baseline: one fig8a Memcached cell at 40% load, where idle
   cores park and pay the kernel wake-up on their next dispatch.  It is
   the only per-CPU run with parking and without preemption. *)
let shenango_config =
  { Config.duration = Time.ms 5; seed = 13; jobs = 1; requests = None }

let shenango_cell () =
  let p =
    Fig8.run_server shenango_config Fig8.Shenango_ws
      ~workers:Fig8.memcached_workers ~service:Skyloft_apps.Memcached.service
      ~rate_rps:(0.4 *. Fig8.memcached_saturation)
  in
  Printf.sprintf "%h|%h|%h|%h" p.Fig8.offered_rps p.Fig8.achieved_rps
    p.Fig8.p999_us p.Fig8.p999_slowdown

(* Every golden is one independent cell; [jobs] fans them across domains.
   The values must be identical at any [jobs] — that invariance, checked
   against the committed digests, is the proof that parallelization is
   transparent. *)
let fingerprints ?(jobs = 1) () =
  let cells =
    [
      ("trace-percpu", fun () -> digest (fst (traced_percpu ~seed:trace_seed)));
      ( "trace-centralized",
        fun () -> digest (fst (traced_centralized ~seed:trace_seed)) );
      ( "trace-hybrid",
        fun () ->
          let json, _, _ = traced_hybrid ~seed:trace_seed in
          digest json );
      ( "trace-worksteal",
        fun () ->
          let json, _, _ = traced_worksteal ~seed:trace_seed in
          digest json );
    ]
    @ List.map
        (fun ((name, _) as runtime) ->
          ( "fault-sweep-" ^ name,
            fun () ->
              digest
                (fault_point_string
                   (Fault_sweep.run_point sweep_config ~runtime ~rate:sweep_rate))
          ))
        Fault_sweep.runtimes
    @ List.map
        (fun ((name, _) as runtime) ->
          ( "obs-report-" ^ name,
            fun () ->
              (Obs_report.run_point obs_config ~runtime ~instrumented:false)
                .Obs_report.fingerprint ))
        Obs_report.runtimes
    @ [
        ( "obs-machine",
          fun () ->
            (Obs_report.run_machine_point ~seed:obs_machine_seed
               ~requests:obs_machine_requests ~instrumented:false)
              .Obs_report.m_fingerprint );
      ]
    @ List.concat_map
        (fun scenario ->
          List.map
            (fun runtime ->
              ( Printf.sprintf "scale-%s-%s" scenario.Scale.Scenario.name
                  (Scale.Scenario.runtime_name runtime),
                fun () ->
                  digest
                    (Scale.Scenario.digest_string
                       (Scale.Scenario.run ~seed:scale_seed
                          ~requests:scale_requests ~runtime scenario)) ))
            Scale.runtimes)
        Scale.scenarios
    @ List.map
        (fun scenario ->
          ( "oversub-" ^ scenario,
            fun () -> digest (Oversub.golden_cell ~scenario) ))
        Oversub.golden_scenarios
    @ [ ("fig8a-shenango", fun () -> digest (shenango_cell ())) ]
  in
  Parallel.map ~jobs (fun (name, f) -> (name, f ())) cells

let print (config : Config.t) =
  Report.section "Golden determinism fingerprints (fixed seeds)";
  List.iter (fun (name, fp) -> Printf.printf "  %-24s %s\n" name fp)
    (fingerprints ~jobs:config.jobs ())
