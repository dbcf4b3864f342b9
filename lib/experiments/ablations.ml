module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Centralized = Skyloft.Centralized
module Worksteal = Skyloft.Worksteal
module Coro = Skyloft_sim.Coro
module Dist = Skyloft_sim.Dist
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module Udp_server = Skyloft_apps.Udp_server
module Histogram = Skyloft_stats.Histogram

(** Ablations of the design choices DESIGN.md calls out:

    - A1 tick-frequency overhead: what the 100 kHz user timer costs in
      throughput (the interrupt-handling tax, §5.2's quantum trade-off).
    - A2 per-CPU timers vs centralized dispatcher (Figure 2a vs 2b): same
      workload, who needs the extra core and where the bottleneck sits.
    - A3 dispatcher scalability: centralized throughput vs worker count
      for tiny requests — the serialization ceiling the paper attributes
      to Shinjuku-style designs (§3.2).
    - A4 NIC reception modes: spin-polling vs periodic polling vs §6
      user-interrupt (MSI) delivery.
    - A5 the hybrid runtime vs both parents: the centralized runtime with
      its mode switch on, at low and high load against pure per-CPU and
      pure centralized dispatch (the switch's behaviour asserted
      in-sweep).
    - A6 the work-stealing deque runtime against the other three across
      arrival regimes — where steal-half decentralization beats the
      hybrid's dispatcher and where it loses (both asserted in-sweep). *)

(* ---- A1: tick frequency tax -------------------------------------------- *)

let a1_tick_frequency (config : Config.t) =
  Report.section "Ablation A1: user-timer tick frequency vs useful throughput";
  let run hz =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Percpu.create machine kmod ~cores:[ 0 ] ~timer_hz:hz
        ~preemption:(hz > 0)
        (Skyloft_policies.Rr.create ~slice:(Time.us 50) ())
    in
    let app = Percpu.create_app rt ~name:"hog" in
    (* one core fully loaded with 10us work items *)
    let done_ = ref 0 in
    let rec refill () =
      ignore
        (Percpu.spawn rt app ~name:"chunk" ~record:false
           (Coro.Compute
              ( Time.us 10,
                fun () ->
                  incr done_;
                  if Engine.now engine < config.duration then refill ();
                  Coro.Exit )))
    in
    refill ();
    Engine.run ~until:config.duration engine;
    float_of_int (!done_ * Time.us 10) /. float_of_int config.duration
  in
  let rates = [ 0; 1_000; 10_000; 100_000; 1_000_000 ] in
  let effs = Parallel.map ~jobs:config.jobs run rates in
  (* the hz=0 cell doubles as the baseline: fresh engines make it the
     same value the old separate base run produced *)
  let base = List.hd effs in
  let rows =
    List.map2
      (fun hz eff ->
        [
          (if hz = 0 then "no timer" else Printf.sprintf "%d Hz" hz);
          Report.pct eff;
          Report.pct (eff /. base);
        ])
      rates effs
  in
  Report.table ~header:[ "tick rate"; "useful CPU"; "vs no timer" ] rows;
  Report.note "each tick costs the user-timer receive (~321ns) + SN re-post (~62ns);";
  Report.note "at the paper's 100 kHz that is a ~4%% tax, at 1 MHz it is ~40%%";
  rows

(* ---- A2: per-CPU timers vs centralized dispatcher ----------------------- *)

let a2_percpu_vs_centralized (config : Config.t) =
  Report.section
    "Ablation A2: per-CPU timer preemption (Fig 2a) vs centralized dispatcher (Fig 2b)";
  let n_cores = 8 in
  let rate = 0.75 *. (float_of_int n_cores *. 1e9 /. Dist.mean Dist.dispersive) in
  let run_percpu () =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Percpu.create machine kmod ~cores:(List.init n_cores Fun.id) ~timer_hz:100_000
        (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 30) ())
    in
    let app = Percpu.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    Loadgen.poisson engine ~rng ~rate_rps:rate ~service:Dist.dispersive
      ~duration:config.duration (fun pkt ->
        ignore
          (Percpu.spawn rt app ~name:"req" ~arrival:pkt.Skyloft_net.Packet.arrival
             ~service:pkt.Skyloft_net.Packet.service
             (Coro.compute_then_exit pkt.Skyloft_net.Packet.service)));
    Engine.run ~until:(config.duration + Time.ms 60) engine;
    (app.App.summary, n_cores)
  in
  let run_centralized () =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    (* one of the cores becomes the dispatcher: 7 workers *)
    let rt =
      Centralized.create machine kmod ~dispatcher_core:0
        ~worker_cores:(List.init (n_cores - 1) (fun i -> i + 1))
        ~quantum:(Time.us 30)
        (Skyloft_policies.Shinjuku.create ())
    in
    let app = Centralized.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    Loadgen.poisson engine ~rng ~rate_rps:rate ~service:Dist.dispersive
      ~duration:config.duration (fun pkt ->
        ignore
          (Centralized.submit rt app ~name:"req" ~service:pkt.Skyloft_net.Packet.service
             (Coro.compute_then_exit pkt.Skyloft_net.Packet.service)));
    Engine.run ~until:(config.duration + Time.ms 60) engine;
    (app.App.summary, n_cores - 1)
  in
  let pc, pc_workers, ct, ct_workers =
    match
      Parallel.map ~jobs:config.jobs
        (fun f -> f ())
        [ run_percpu; run_centralized ]
    with
    | [ (pc, pcw); (ct, ctw) ] -> (pc, pcw, ct, ctw)
    | _ -> assert false
  in
  Report.table
    ~header:[ "design"; "workers"; "served"; "p99 (us)"; "p99.9 (us)" ]
    [
      [
        "per-CPU timers (2a)"; string_of_int pc_workers;
        string_of_int (Summary.requests pc);
        Report.us (Summary.latency_p pc 99.0);
        Report.us (Summary.latency_p pc 99.9);
      ];
      [
        "centralized dispatcher (2b)"; string_of_int ct_workers;
        string_of_int (Summary.requests ct);
        Report.us (Summary.latency_p ct 99.0);
        Report.us (Summary.latency_p ct 99.9);
      ];
    ];
  Report.note "same 8 cores and load: the dispatcher core is lost to useful work";
  Report.note "(both p99.9 columns include the 0.5%% of requests that ARE 10ms long)"

(* ---- A3: dispatcher scalability ----------------------------------------- *)

let a3_dispatcher_scalability (config : Config.t) =
  Report.section
    "Ablation A3: centralized dispatcher scalability (1us requests, growing workers)";
  let run workers =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Centralized.create machine kmod ~dispatcher_core:0
        ~worker_cores:(List.init workers (fun i -> i + 1))
        ~quantum:0
        (Skyloft_policies.Shinjuku.create ())
    in
    let app = Centralized.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    (* overload: 1.2x the worker capacity of 1us requests *)
    let rate = 1.2 *. float_of_int workers *. 1e6 in
    let in_window = ref 0 in
    ignore
      (Engine.at engine config.duration (fun () ->
           in_window := Summary.requests app.App.summary));
    Loadgen.poisson engine ~rng ~rate_rps:rate ~service:(Dist.Constant (Time.us 1))
      ~duration:config.duration (fun pkt ->
        ignore
          (Centralized.submit rt app ~name:"req" ~service:pkt.Skyloft_net.Packet.service
             (Coro.compute_then_exit pkt.Skyloft_net.Packet.service)));
    Engine.run ~until:(config.duration + Time.ms 20) engine;
    float_of_int !in_window /. Time.to_s_float config.duration /. 1.0e6
  in
  let rows =
    Parallel.map ~jobs:config.jobs
      (fun workers ->
        [ string_of_int workers; Printf.sprintf "%.2f Mrps" (run workers) ])
      [ 2; 4; 8; 16; 32 ]
  in
  Report.table ~header:[ "workers"; "achieved" ] rows;
  Report.note "the global queue + dispatch cost cap throughput regardless of";
  Report.note "worker count — the scalability wall of Figure 2b designs";
  rows

(* ---- A4: NIC reception modes --------------------------------------------- *)

let a4_nic_modes (config : Config.t) =
  Report.section "Ablation A4: NIC reception — spin polling vs periodic vs user MSI (§6)";
  let cores = [ 0; 1 ] in
  let run mode_name make_nic attach =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    (* preemption off: with timer delegation the UPID.SN bit suppresses
       device notification IPIs and MSIs would coalesce onto timer ticks *)
    let rt =
      Percpu.create machine kmod ~cores ~preemption:false
        (Skyloft_policies.Work_stealing.create ())
    in
    let app = Percpu.create_app rt ~name:"srv" in
    let nic = make_nic engine machine in
    attach rt app nic;
    let rng = Engine.split_rng engine in
    (* light load so the latency is pure delivery path *)
    Loadgen.poisson engine ~rng ~rate_rps:50_000.0 ~service:(Dist.Constant (Time.us 2))
      ~duration:config.duration (fun pkt -> Nic.rx nic pkt);
    Engine.run ~until:(config.duration + Time.ms 10) engine;
    [
      mode_name;
      Report.us (Summary.latency_p app.App.summary 50.0);
      Report.us (Summary.latency_p app.App.summary 99.0);
    ]
  in
  let rows =
    Parallel.map ~jobs:config.jobs
      (fun f -> f ())
      [
        (fun () ->
          run "spin polling (dedicated core)"
            (fun engine _ -> Nic.create engine ~queues:2 ())
            (fun rt app nic -> Udp_server.attach rt app nic ~cores));
        (fun () ->
          run "periodic polling (10us)"
            (fun engine _ ->
              Nic.create engine ~queues:2 ~mode:(Nic.Periodic (Time.us 10)) ())
            (fun rt app nic -> Udp_server.attach rt app nic ~cores));
        (fun () ->
          run "user interrupt (MSI via UINTR)"
            (fun engine machine ->
              Nic.create engine ~queues:2
                ~mode:(Nic.Msi { machine; cores = Array.of_list cores })
                ())
            (fun rt app nic -> Udp_server.attach_irq rt app nic ~cores));
      ]
  in
  Report.table ~header:[ "rx mode"; "p50 (us)"; "p99 (us)" ] rows;
  Report.note "user-mode MSI delivery needs no polling core and no kernel, at";
  Report.note "~0.6us interrupt latency; periodic polling trades latency for CPU";
  rows

(* ---- A5: the hybrid runtime vs both parents ------------------------------ *)

(* Same 8 cores for everyone: per-CPU keeps all 8 as workers, centralized
   and hybrid surrender one to the dispatcher.  The load axis is where the
   trade-off lives — the dispatcher's single queue wins the low-load tail,
   per-core timers win throughput once the queue deepens — and the hybrid
   switches modes as the queue depth crosses its hysteresis band.  The run
   fails unless the hybrid stays central at 20% load and switches at least
   once at 80%. *)
let a5_hybrid_vs_parents (config : Config.t) =
  Report.section
    "Ablation A5: hybrid runtime (centralized + mode switch) vs both parents";
  let n_cores = 8 in
  let quantum = Time.us 30 in
  let cap = float_of_int n_cores *. 1e9 /. Dist.mean Dist.dispersive in
  let measure name summary extra =
    [
      name;
      string_of_int (Summary.requests summary);
      Report.us (Summary.latency_p summary 50.0);
      Report.us (Summary.latency_p summary 99.0);
      extra;
    ]
  in
  let run_percpu rate =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Percpu.create machine kmod ~cores:(List.init n_cores Fun.id)
        ~timer_hz:100_000
        (Skyloft_policies.Work_stealing.create ~quantum ())
    in
    let app = Percpu.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    Loadgen.poisson engine ~rng ~rate_rps:rate ~service:Dist.dispersive
      ~duration:config.duration (fun pkt ->
        ignore
          (Percpu.spawn rt app ~name:"req"
             ~arrival:pkt.Skyloft_net.Packet.arrival
             ~service:pkt.Skyloft_net.Packet.service
             (Coro.compute_then_exit pkt.Skyloft_net.Packet.service)));
    Engine.run ~until:(config.duration + Time.ms 60) engine;
    (measure "per-CPU (2a)" app.App.summary "-", 0)
  in
  (* Centralized, or the hybrid when [percore_hz] turns the mode switch
     on; the second result is the mode switches made. *)
  let run_dispatcher ?percore_hz design ctor rate =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Centralized.create machine kmod ~dispatcher_core:0
        ~worker_cores:(List.init (n_cores - 1) (fun i -> i + 1))
        ~quantum ?percore_hz (ctor ())
    in
    let app = Centralized.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    Loadgen.poisson engine ~rng ~rate_rps:rate ~service:Dist.dispersive
      ~duration:config.duration (fun pkt ->
        ignore
          (Centralized.submit rt app ~name:"req"
             ~service:pkt.Skyloft_net.Packet.service
             (Coro.compute_then_exit pkt.Skyloft_net.Packet.service)));
    Engine.run ~until:(config.duration + Time.ms 60) engine;
    let switches = Centralized.mode_switches rt in
    ( measure design app.App.summary
        (match percore_hz with
        | None -> "-"
        | Some _ ->
            Printf.sprintf "%d switches, end %s" switches
              (match Centralized.mode rt with
              | Centralized.Central -> "central"
              | Centralized.Percore -> "percore")),
      switches )
  in
  let run_centralized =
    run_dispatcher "centralized (2b)" Skyloft_policies.Shinjuku.create
  in
  let run_hybrid =
    run_dispatcher ~percore_hz:100_000 "hybrid" (fun () ->
        fst (Skyloft_policies.Shinjuku_shenango.create ()))
  in
  let results =
    Parallel.map ~jobs:config.jobs
      (fun (load, r) -> (load, r (load *. cap)))
      (List.concat_map
         (fun load ->
           List.map (fun r -> (load, r)) [ run_percpu; run_centralized; run_hybrid ])
         [ 0.2; 0.8 ])
  in
  let rows =
    List.map
      (fun (load, (row, _)) -> Printf.sprintf "%.0f%%" (load *. 100.) :: row)
      results
  in
  Report.table
    ~header:[ "load"; "design"; "served"; "p50 (us)"; "p99 (us)"; "mode" ]
    rows;
  (* The asserted claim: the monitor leaves a shallow queue to the
     dispatcher and hands a deep one to the per-core timers. *)
  let hybrid_switches load =
    match
      List.find_map
        (fun (l, (row, switches)) ->
          if l = load && List.hd row = "hybrid" then Some switches else None)
        results
    with
    | Some switches -> switches
    | None -> failwith "ablation A5: missing cell"
  in
  if hybrid_switches 0.2 <> 0 then
    failwith
      "ablation A5: the hybrid switched modes at 20% load — a shallow queue \
       should stay with the dispatcher";
  if hybrid_switches 0.8 < 1 then
    failwith
      "ablation A5: the hybrid never switched modes at 80% load — a deep \
       queue should reach the per-core timers";
  Report.note "20%% load: the hybrid never leaves central mode and matches the";
  Report.note "centralized row; 80%%: the deep queue hands the workers to per-core";
  Report.note "timers, and the hybrid's p99 ends above the centralized row's (the";
  Report.note "dispatcher rows differ in policy too: Shinjuku vs Shinjuku_shenango)";
  rows

(* ---- A6: the work-stealing runtime across arrival regimes ---------------- *)

(* Same 8 cores, three arrival regimes, all four runtimes.  The regimes
   are chosen to pull the steal-half design in opposite directions:

   - skewed: every request carries RSS affinity to a 2-core hot set.  The
     per-core runtimes honour the pin and must move work off the hot
     deques themselves (steal probes, migration cachelines, park/unpark
     round-trips, up to a tick of reaction latency); the dispatcher
     flavours spread by construction and at this load the hybrid stays
     central — its single queue is immune to placement skew.
   - bursty: a batch of requests lands on ONE core every 200 us,
     round-robin.  Steal-half disperses the burst in O(log batch) grabs,
     but thieves only notice on their next tick and parked cores pay the
     resume cost; the centralized flavours serialize the burst through
     one dispatch loop yet place each request on an idle worker with
     zero reaction latency (the hybrid also churns across its hysteresis
     band — mode switches are visible in the notes column).
   - overload: uniform arrivals at 90% of the 8-core capacity.  That is
     comfortable for the decentralized runtimes, but any design that
     surrenders a core to a dispatcher now faces 8/7 of it (~103%) plus
     the per-request dispatch cost — uniform load that overloads exactly
     the dispatcher flavours, so their backlog (and p99) grows with the
     run while steal-half stays stable.

   The sweep asserts the trade-off exists: at least one regime where the
   work-stealing runtime's p99 beats the hybrid's and at least one where
   it loses.  A refactor that makes stealing free (or useless) fails. *)
let a6_worksteal_regimes (config : Config.t) =
  Report.section
    "Ablation A6: work-stealing deques vs the other three runtimes across \
     arrival regimes";
  let n_cores = 8 in
  let quantum = Time.us 30 in
  let service = Dist.Exponential { mean = Time.us 5 } in
  let cap = float_of_int n_cores *. 1e9 /. Dist.mean service in
  let horizon = config.duration + Time.ms 60 in
  let drive_skewed engine rng submit =
    let i = ref 0 in
    Loadgen.poisson engine ~rng ~rate_rps:(0.2 *. cap) ~service
      ~duration:config.duration (fun pkt ->
        let cpu = !i mod 2 in
        incr i;
        submit ~cpu:(Some cpu) ~service:pkt.Skyloft_net.Packet.service)
  in
  let drive_bursty engine rng submit =
    let period = Time.us 200 and batch = 24 in
    for b = 0 to (config.duration / period) - 1 do
      ignore
        (Engine.at engine (b * period) (fun () ->
             for _ = 1 to batch do
               submit ~cpu:(Some (b mod n_cores)) ~service:(Dist.sample service rng)
             done))
    done
  in
  let drive_overload engine rng submit =
    Loadgen.poisson engine ~rng ~rate_rps:(0.9 *. cap) ~service
      ~duration:config.duration (fun pkt ->
        submit ~cpu:None ~service:pkt.Skyloft_net.Packet.service)
  in
  let run_percpu drive =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Percpu.create machine kmod ~cores:(List.init n_cores Fun.id)
        ~timer_hz:100_000
        (Skyloft_policies.Work_stealing.create ~quantum ())
    in
    let app = Percpu.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    drive engine rng (fun ~cpu ~service ->
        ignore
          (Percpu.spawn rt app ~name:"req" ?cpu ~service
             (Coro.compute_then_exit service)));
    Engine.run ~until:horizon engine;
    ("percpu", app.App.summary, "-")
  in
  (* Centralized, or the hybrid when [percore_hz] turns the mode switch
     on. *)
  let run_dispatcher ?percore_hz design ctor drive =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Centralized.create machine kmod ~dispatcher_core:0
        ~worker_cores:(List.init (n_cores - 1) (fun i -> i + 1))
        ~quantum ?percore_hz (ctor ())
    in
    let app = Centralized.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    drive engine rng (fun ~cpu:_ ~service ->
        ignore
          (Centralized.submit rt app ~name:"req" ~service
             (Coro.compute_then_exit service)));
    Engine.run ~until:horizon engine;
    ( design,
      app.App.summary,
      match percore_hz with
      | None -> "-"
      | Some _ ->
          Printf.sprintf "%d mode switches" (Centralized.mode_switches rt) )
  in
  let run_centralized =
    run_dispatcher "centralized" Skyloft_policies.Shinjuku.create
  in
  let run_hybrid =
    run_dispatcher ~percore_hz:100_000 "hybrid" (fun () ->
        fst (Skyloft_policies.Shinjuku_shenango.create ()))
  in
  let run_worksteal drive =
    let engine = Engine.create ~seed:config.seed () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let rt =
      Worksteal.create machine kmod ~cores:(List.init n_cores Fun.id)
        ~timer_hz:100_000 ~quantum ()
    in
    let app = Worksteal.create_app rt ~name:"lc" in
    let rng = Engine.split_rng engine in
    drive engine rng (fun ~cpu ~service ->
        ignore
          (Worksteal.spawn rt app ~name:"req" ?cpu ~service
             (Coro.compute_then_exit service)));
    Engine.run ~until:horizon engine;
    ( "worksteal",
      app.App.summary,
      Printf.sprintf "%d steals (%d tasks), %d parks" (Worksteal.steals rt)
        (Worksteal.stolen_tasks rt) (Worksteal.parks rt) )
  in
  let regimes =
    [
      ("skewed", drive_skewed);
      ("bursty", drive_bursty);
      ("overload", drive_overload);
    ]
  in
  let runners = [ run_percpu; run_centralized; run_hybrid; run_worksteal ] in
  let cells =
    List.concat_map
      (fun (rname, drive) -> List.map (fun run -> (rname, drive, run)) runners)
      regimes
  in
  let results =
    Parallel.map ~jobs:config.jobs
      (fun (rname, drive, run) -> (rname, run drive))
      cells
  in
  Report.table
    ~header:[ "regime"; "design"; "served"; "p50 (us)"; "p99 (us)"; "notes" ]
    (List.map
       (fun (rname, (design, summary, extra)) ->
         [
           rname;
           design;
           string_of_int (Summary.requests summary);
           Report.us (Summary.latency_p summary 50.0);
           Report.us (Summary.latency_p summary 99.0);
           extra;
         ])
       results);
  (* The asserted claim: the trade-off is real in both directions. *)
  let p99_of rname design =
    match
      List.find_opt
        (fun (r, (d, _, _)) -> String.equal r rname && String.equal d design)
        results
    with
    | Some (_, (_, summary, _)) -> Summary.latency_p summary 99.0
    | None -> failwith "ablation A6: missing cell"
  in
  let comparisons =
    List.map
      (fun (rname, _) -> (rname, p99_of rname "worksteal", p99_of rname "hybrid"))
      regimes
  in
  let wins = List.filter (fun (_, ws, hy) -> ws < hy) comparisons in
  let losses = List.filter (fun (_, ws, hy) -> ws > hy) comparisons in
  if wins = [] then
    failwith
      "ablation A6: the work-stealing runtime never beat the hybrid in any \
       regime — decentralized steal-half should win somewhere";
  if losses = [] then
    failwith
      "ablation A6: the work-stealing runtime never lost to the hybrid — \
       stealing is not free; some regime must show its cost";
  List.iter
    (fun (rname, ws, hy) ->
      Report.note "%s: worksteal p99 %s vs hybrid %s — stealing %s" rname
        (Report.us ws) (Report.us hy)
        (if ws < hy then "wins" else if ws > hy then "loses" else "ties"))
    comparisons;
  Report.note
    "skew and bursts reward the dispatcher's zero-latency placement; high";
  Report.note
    "uniform load rewards keeping all 8 cores serving with no dispatcher";
  results

let print config =
  ignore (a1_tick_frequency config);
  a2_percpu_vs_centralized config;
  ignore (a3_dispatcher_scalability config);
  ignore (a4_nic_modes config);
  ignore (a5_hybrid_vs_parents config);
  ignore (a6_worksteal_regimes config)
