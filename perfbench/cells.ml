(* The benchmark's cells: one simulated run each, two ways.

   [library] runs the cell through the library's own experiment code:
   - [scenario] through [Scenario.run] (the scale sweep's cells);
   - [fault] through [Fault_sweep.run_point];
   - [placement] through [Oversub.run_cell].
   That is what the end-to-end metrics time.

   [setup] rebuilds the same cell from public constructors, in the
   library's call and RNG-split order, split into a set-up and a thunk
   that runs it.  The library's runners expose neither their set-up on
   its own nor a hook around each submit or event, so this copy is what
   set-up time is measured on, and what the traced and probe passes run.
   Both ways end in the library's own digest rendering and the same
   reconciliation check, and the benchmark checks on every run that they
   give the same digest.

   [mode] adds observation without changing the simulation: [Traced]
   records spans around every layer call, [Probe] samples the event-heap
   depth after every event and the LC run-queue depth at every submit. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Coro = Skyloft_sim.Coro
module Dist = Skyloft_sim.Dist
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Broker = Skyloft_alloc.Broker
module Nic = Skyloft_net.Nic
module Packet = Skyloft_net.Packet
module Loadgen = Skyloft_net.Loadgen
module Injector = Skyloft_fault.Injector
module Scenario = Skyloft_scenario.Scenario
module Shape = Skyloft_scenario.Shape
module Arrival = Skyloft_scenario.Arrival
module Placement = Skyloft_scenario.Placement
module Fault_sweep = Skyloft_experiments.Fault_sweep
module Oversub = Skyloft_experiments.Oversub
module Golden = Skyloft_experiments.Golden

(* Depth samples as counts per depth. *)
module Depths = struct
  type t = { mutable counts : int array; mutable n : int; mutable max : int }

  let create () = { counts = Array.make 256 0; n = 0; max = 0 }

  let add t d =
    if d >= Array.length t.counts then
      t.counts <-
        Array.append t.counts (Array.make (max d (Array.length t.counts)) 0);
    t.counts.(d) <- t.counts.(d) + 1;
    t.n <- t.n + 1;
    if d > t.max then t.max <- d

  (* Smallest depth with at least [p]% of the samples at or below it. *)
  let percentile t p =
    let target = max 1 (int_of_float (Float.ceil (float_of_int t.n *. p /. 100.))) in
    let rec go d acc =
      if d >= Array.length t.counts then t.max
      else
        let acc = acc + t.counts.(d) in
        if acc >= target then d else go (d + 1) acc
    in
    if t.n = 0 then 0 else go 0 0
end

(* Run-queue depth excludes the BE backlog: [central_runq] is the one LC
   queue of centralized and hybrid, [percore_runq] the LC tasks queued on
   a per-CPU runtime divided by its cores. *)
type probe = { pending : Depths.t; central_runq : Depths.t; percore_runq : Depths.t }

let probe () =
  { pending = Depths.create (); central_runq = Depths.create (); percore_runq = Depths.create () }

type mode = Plain | Traced of Spans.t | Probe of probe

(* Host-independent work counts of one cell, read from each layer's
   public counters after the run. *)
type counts = {
  events : int;
  interrupts : int;
  user_interrupts : int;
  kmod_steals : int;
  rt : Rt.counters;
  alloc_ticks : int;
  broker_ticks : int;
  nic_drops : int;
  injected : int;
}

type outcome = {
  digest : string;  (* the library's canonical rendering of the cell *)
  submitted : int;
  completed : int;
  errors : string list;  (* reconciliation identities that did not hold *)
}

type cell = {
  label : string;
  library : unit -> outcome;  (* the cell through the library's runner *)
  setup : mode -> unit -> outcome * counts;
      (* the copy: builds everything up to the first event; the thunk
         runs it *)
}

let setup_span mode label f =
  match mode with Traced tr -> Spans.with_span tr ("setup:" ^ label) f | _ -> f ()

let run_until mode engine until =
  match mode with
  | Plain -> Engine.run ~until engine
  | Traced tr -> Spans.with_span tr "run:Engine.run" (fun () -> Engine.run ~until engine)
  | Probe p ->
      (* One event per call: the same events fire in the same order as
         one [Engine.run ~until], with the heap depth read between them. *)
      let rec go () =
        let before = Engine.events_fired engine in
        Engine.run ~until ~max_events:1 engine;
        if Engine.events_fired engine > before then begin
          Depths.add p.pending (Engine.pending engine);
          go ()
        end
      in
      go ()

(* One call into a runtime's submit/spawn for one stage of request [req],
   whose body computes [service] and then runs [on_done]. *)
type submitter = {
  mode : mode;
  rt : Rt.t;
  submit_name : int;
  complete_name : int;
}

let submitter mode (rt : Rt.t) =
  match mode with
  | Traced tr ->
      {
        mode;
        rt;
        submit_name = Spans.intern tr ("submit:" ^ rt.Rt.name);
        complete_name = Spans.intern tr ("complete:" ^ rt.Rt.name);
      }
  | Plain | Probe _ -> { mode; rt; submit_name = 0; complete_name = 0 }

let submit s app ~name ~req ?deadline ?on_drop ~service on_done =
  let on_drop = Option.map (fun f _ -> f ()) on_drop in
  match s.mode with
  | Plain ->
      s.rt.submit app ~name ?deadline ?on_drop
        (Coro.Compute
           ( service,
             fun () ->
               on_done ();
               Coro.Exit ))
  | Traced tr ->
      let body =
        Coro.Compute
          ( service,
            fun () ->
              let sp = Spans.enter tr s.complete_name ~req in
              on_done ();
              Spans.leave tr sp;
              Coro.Exit )
      in
      let sp = Spans.enter tr s.submit_name ~req in
      s.rt.submit app ~name ?deadline ?on_drop body;
      Spans.leave tr sp
  | Probe p ->
      let queued = s.rt.lc_queued () and queues = s.rt.lc_queues in
      if queues = 1 then Depths.add p.central_runq queued
      else Depths.add p.percore_runq ((queued + (queues / 2)) / queues);
      s.rt.submit app ~name ?deadline ?on_drop
        (Coro.Compute
           ( service,
             fun () ->
               on_done ();
               Coro.Exit ))

(* A request's shape compiled to submissions, as Scenario.run and
   Placement.run compile it: [k] runs once the last stage (chain) or the
   join (fan-out) completes; [fail] is the attempt's drop callback. *)
let rec exec s app ~name ~req ~rng ?deadline ?fail shape k =
  match shape with
  | Shape.Single d | Shape.Chain [ d ] ->
      submit s app ~name ~req ?deadline ?on_drop:fail
        ~service:(Dist.sample d rng) k
  | Shape.Chain [] -> assert false
  | Shape.Chain (d :: rest) ->
      submit s app ~name ~req ?deadline ?on_drop:fail
        ~service:(Dist.sample d rng) (fun () ->
          exec s app ~name ~req ~rng ?deadline ?fail (Shape.Chain rest) k)
  | Shape.Fanout { width; stage } ->
      let remaining = ref width in
      for _ = 1 to width do
        submit s app ~name ~req ?deadline ?on_drop:fail
          ~service:(Dist.sample stage rng) (fun () ->
            decr remaining;
            if !remaining = 0 then k ())
      done
  | Shape.Mix _ -> invalid_arg "perfbench: mixed shapes are not benchmarked"

let request_ids mode =
  let next = ref 0 in
  match mode with
  | Traced _ ->
      fun () ->
        incr next;
        !next
  | Plain | Probe _ -> fun () -> -1

let allocator_ticks (rt : Rt.t) =
  match rt.allocator () with Some a -> Allocator.ticks a | None -> 0

(* ---- Scenario.run --------------------------------------------------------- *)

let scenario_outcome (d : Scenario.digest) =
  {
    digest = Scenario.digest_string d;
    submitted = d.submitted;
    completed = d.completed;
    errors =
      (if d.completed = d.submitted then []
       else
         [
           Printf.sprintf "%s/%s: submitted %d <> completed %d" d.scenario d.runtime
             d.submitted d.completed;
         ]);
  }

let scenario_alloc_config (bounds : Scenario.bounds) =
  {
    (Allocator.default_config ()) with
    Allocator.policy = Alloc_policy.delay ();
    be_guaranteed = bounds.Scenario.guaranteed;
    be_burstable = bounds.Scenario.burstable;
  }

type lc_state = {
  spec : Scenario.lc_spec;
  app : App.t;
  rng : Rng.t;
  hist : Histogram.t;
  mutable l_submitted : int;
  mutable l_completed : int;
}

let scenario_setup ~seed ~requests ~runtime (sc : Scenario.t) mode =
  Scenario.validate sc;
  let engine = setup_span mode "Engine.create" (fun () -> Engine.create ~seed ()) in
  let topo_cores =
    match runtime with
    | Scenario.Percpu | Scenario.Worksteal -> sc.cores
    | Scenario.Centralized | Scenario.Hybrid -> sc.cores + 1
  in
  let machine =
    setup_span mode "Machine.create" (fun () ->
        Machine.create engine
          (Topology.create ~sockets:1 ~cores_per_socket:topo_cores))
  in
  let kmod = setup_span mode "Kmod.create" (fun () -> Kmod.create machine) in
  let be_tenant =
    List.find_map (function Scenario.Be b -> Some b | Scenario.Lc _ -> None) sc.tenants
  in
  let rt =
    setup_span mode (Scenario.runtime_name runtime ^ ".create") (fun () ->
        Rt.create runtime machine kmod ~cores:(List.init topo_cores Fun.id)
          ~quantum:sc.quantum
          ?alloc:
            (Option.map (fun b -> scenario_alloc_config b.Scenario.bounds) be_tenant)
          ())
  in
  let lcs =
    List.filter_map
      (function
        | Scenario.Lc spec ->
            let app =
              setup_span mode "create_app" (fun () -> rt.create_app ~name:spec.lc_name)
            in
            Some
              {
                spec;
                app;
                rng = Engine.split_rng engine;
                hist = Histogram.create ();
                l_submitted = 0;
                l_completed = 0;
              }
        | Scenario.Be _ -> None)
      sc.tenants
  in
  let arrival_rngs = List.map (fun _ -> Engine.split_rng engine) lcs in
  (match be_tenant with
  | Some { be_name; chunk; workers; _ } ->
      setup_span mode "attach_be" (fun () ->
          let app = rt.create_app ~name:be_name in
          rt.attach_be app ~chunk
            ~workers:(Option.value workers ~default:sc.cores))
  | None -> ());
  let s = submitter mode rt in
  let next_req = request_ids mode in
  let submitted = ref 0 and completed = ref 0 and last_completion = ref 0 in
  let arrive l at =
    l.l_submitted <- l.l_submitted + 1;
    incr submitted;
    let finish () =
      l.l_completed <- l.l_completed + 1;
      incr completed;
      let now = Engine.now engine in
      last_completion := max !last_completion now;
      Histogram.record l.hist (now - at)
    in
    exec s l.app ~name:l.spec.lc_name ~req:(next_req ()) ~rng:l.rng l.spec.shape
      finish
  in
  setup_span mode "Loadgen.stream" (fun () ->
      List.iter2
        (fun l arrival_rng ->
          let next = Arrival.sampler l.spec.arrival arrival_rng in
          Loadgen.stream engine
            ~next:(fun ~now -> if !submitted >= requests then None else next ~now)
            (fun at -> arrive l at))
        lcs arrival_rngs);
  fun () ->
    let expected_ns =
      int_of_float (float_of_int requests /. Scenario.mean_rate_rps sc *. 1e9)
    in
    let chunk = max (Time.ms 10) (expected_ns / 16) in
    let hard_cap = (8 * expected_ns) + Time.s 1 in
    let rec drain until =
      run_until mode engine until;
      if (!submitted < requests || !completed < !submitted) && until < hard_cap
      then drain (until + chunk)
    in
    drain chunk;
    let alloc = rt.allocator () in
    let d =
      {
        Scenario.scenario = sc.name;
        runtime = rt.name;
        target = requests;
        submitted = !submitted;
        completed = !completed;
        last_completion = !last_completion;
        tenants =
          List.map
            (fun l ->
              {
                Scenario.tenant = l.spec.lc_name;
                submitted = l.l_submitted;
                completed = l.l_completed;
                latency = l.hist;
              })
            lcs;
        be_preemptions = (rt.counters ()).be_preemptions;
        alloc_grants = (match alloc with Some a -> Allocator.grants a | None -> 0);
        alloc_reclaims = (match alloc with Some a -> Allocator.reclaims a | None -> 0);
      }
    in
    let interrupts, user_interrupts = Rt.interrupts machine in
    ( scenario_outcome d,
        {
          events = Engine.events_fired engine;
          interrupts;
          user_interrupts;
          kmod_steals = Kmod.steals kmod;
          rt = rt.counters ();
          alloc_ticks = allocator_ticks rt;
          broker_ticks = 0;
          nic_drops = 0;
          injected = 0;
        } )

let scenario ~seed ~requests ~runtime (sc : Scenario.t) =
  {
    label = Printf.sprintf "%s/%s" sc.name (Scenario.runtime_name runtime);
    library = (fun () -> scenario_outcome (Scenario.run ~seed ~requests ~runtime sc));
    setup = scenario_setup ~seed ~requests ~runtime sc;
  }

(* ---- Fault_sweep.run_point ------------------------------------------------ *)

let fault_runtime = function
  | Scenario.Percpu -> ("percpu", Fault_sweep.Percore)
  | Scenario.Centralized -> ("centralized", Fault_sweep.Central)
  | Scenario.Hybrid -> ("hybrid", Fault_sweep.Hybridized)
  | Scenario.Worksteal -> ("worksteal", Fault_sweep.Stealing)

let fault_outcome (p : Fault_sweep.point) =
  {
    digest = Golden.fault_point_string p;
    submitted = p.submitted;
    completed = p.completed;
    errors =
      (if p.lost = 0 then []
       else [ Printf.sprintf "fault %s rate %.2f: lost %d" p.runtime p.rate p.lost ]);
  }

let fault_setup ~seed ~duration ~runtime ~rate mode =
  let module F = Fault_sweep in
  let engine = setup_span mode "Engine.create" (fun () -> Engine.create ~seed ()) in
  let machine =
    setup_span mode "Machine.create" (fun () ->
        Machine.create engine Topology.paper_server)
  in
  let kmod = setup_span mode "Kmod.create" (fun () -> Kmod.create machine) in
  let cores =
    match runtime with
    | Scenario.Percpu | Scenario.Worksteal -> F.percpu_cores
    | Scenario.Centralized | Scenario.Hybrid -> F.dispatcher_core :: F.worker_cores
  in
  let rt =
    setup_span mode (Scenario.runtime_name runtime ^ ".create") (fun () ->
        Rt.create runtime machine kmod ~cores ~quantum:F.quantum
          ~watchdog:F.watchdog_bound ~alloc:(F.alloc_cfg ()) ())
  in
  let lc = setup_span mode "create_app" (fun () -> rt.create_app ~name:"lc") in
  setup_span mode "attach_be" (fun () ->
      let be = rt.create_app ~name:"batch" in
      rt.attach_be be ~chunk:(Time.us 50) ~workers:F.n_workers);
  let nic =
    setup_span mode "Nic.create" (fun () ->
        Nic.create engine ~queues:1 ~ring_capacity:F.ring_capacity ())
  in
  let inj_rng = Engine.split_rng engine in
  let gen_rng = Engine.split_rng engine in
  let injector =
    setup_span mode "Injector.create" (fun () ->
        let injector = Injector.create ~engine ~rng:inj_rng () in
        (match F.plans rate with
        | [] -> ()
        | ps ->
            Injector.arm injector
              {
                Injector.machine;
                kmod = Some kmod;
                nic = Some nic;
                cores;
                poison =
                  Some
                    (fun ~core ~service ->
                      rt.submit lc ~name:"poison" ~cpu:core
                        ~deadline:F.poison_deadline
                        (Coro.Compute (service, fun () -> Coro.Exit)));
              }
              ps);
        injector)
  in
  let submitted = ref 0 and completed = ref 0 and gave_up = ref 0 and attempts = ref 0 in
  let summary = Summary.create () in
  let s = submitter mode rt in
  let next_req = request_ids mode in
  setup_span mode "Loadgen.poisson" (fun () ->
      Nic.on_packet nic ~queue:0 (fun (pkt : Packet.t) ->
          let req = next_req () in
          Loadgen.retrying engine ~budget:F.retry_budget ~backoff:F.retry_backoff
            ~attempt:(fun _k done_ ->
              incr attempts;
              submit s lc ~name:pkt.Packet.kind ~req ~deadline:F.deadline
                ~on_drop:(fun () -> done_ false)
                ~service:pkt.Packet.service
                (fun () ->
                  incr completed;
                  Summary.record_request summary ~arrival:pkt.Packet.arrival
                    ~completion:(Engine.now engine) ~service:pkt.Packet.service;
                  done_ true))
            (fun () -> incr gave_up));
      Loadgen.poisson engine ~rng:gen_rng ~rate_rps:F.rate_rps
        ~service:Dist.dispersive ~duration (fun pkt ->
          incr submitted;
          Nic.rx nic pkt));
  fun () ->
    run_until mode engine (duration + F.drain);
    let net_drops = Nic.drops nic + Nic.injected_drops nic in
    let detect = rt.rescue_detection () in
    let detect_p p =
      if Histogram.is_empty detect then 0.0
      else Time.to_us_float (Histogram.percentile detect p)
    in
    let c = rt.counters () in
    let lost = !submitted - !completed - !gave_up - net_drops in
    let point =
      {
        F.runtime = rt.name;
        rate;
        p99_us = Time.to_us_float (Summary.latency_p summary 99.0);
        submitted = !submitted;
        completed = !completed;
        gave_up = !gave_up;
        net_drops;
        lost;
        attempts = !attempts;
        deadline_drops = c.deadline_drops;
        rescues = c.rescues;
        failovers = c.failovers;
        degradations =
          (match rt.allocator () with
          | Some a -> Allocator.degradations a
          | None -> 0);
        detect_p50_us = detect_p 50.0;
        detect_p99_us = detect_p 99.0;
        injected = Injector.injected injector;
        steals = Kmod.steals kmod;
      }
    in
    let interrupts, user_interrupts = Rt.interrupts machine in
    ( fault_outcome point,
        {
          events = Engine.events_fired engine;
          interrupts;
          user_interrupts;
          kmod_steals = Kmod.steals kmod;
          rt = c;
          alloc_ticks = allocator_ticks rt;
          broker_ticks = 0;
          nic_drops = net_drops;
          injected = Injector.injected injector;
        } )

let fault ~seed ~duration ~runtime ~rate =
  {
    label = Printf.sprintf "fault/%s/%.2f" (Scenario.runtime_name runtime) rate;
    library =
      (fun () ->
        fault_outcome
          (Fault_sweep.run_point
             { Skyloft_experiments.Config.duration; seed; jobs = 1; requests = None }
             ~runtime:(fault_runtime runtime) ~rate));
    setup = fault_setup ~seed ~duration ~runtime ~rate;
  }

(* ---- Placement.run, as Oversub.run_cell drives it -------------------------- *)

type tenant_state = {
  t_spec : Placement.tenant;
  t_rt : Rt.t;
  t_kmod : Kmod.t;
  t_app : App.t;
  t_sub : submitter;
  t_rng : Rng.t;
  t_hist : Histogram.t;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_gave_up : int;
}

let fleet_mix = "mixed"

(* The reconciliation Oversub asserts on every cell. *)
let placement_outcome (r : Placement.result) =
  let total f = List.fold_left (fun acc t -> acc + f t) 0 r.tenants in
  {
    digest = Placement.digest_string r;
    submitted = total (fun t -> t.Placement.submitted);
    completed = total (fun t -> t.Placement.completed);
    errors =
      List.filter_map
        (fun t ->
          let lost = Placement.lost t in
          if lost = 0 then None
          else
            Some
              (Printf.sprintf "%s: tenant %s lost %d" r.placement t.Placement.t_name lost))
        r.tenants
      @
      if r.fairness > 0.0 && r.fairness <= 1.0 +. 1e-9 then []
      else [ Printf.sprintf "%s: fairness %.4f outside (0, 1]" r.placement r.fairness ];
  }

let placement_setup ~seed ~tenants:n ~scenario ~requests mode =
  let capacity = 2 * n in
  let t_ns = int_of_float (float_of_int requests /. Oversub.lc_rate *. 1e9) in
  let faults = Oversub.faults_of ~scenario ~t_ns in
  let config = Oversub.placement_config ~scenario in
  let tenants = Oversub.tenants ~mix:fleet_mix ~n ~capacity in
  let name = Printf.sprintf "%s-n%02d-%s" fleet_mix n scenario in
  let engine = setup_span mode "Engine.create" (fun () -> Engine.create ~seed ()) in
  let ranges, total_cores =
    List.fold_left
      (fun (ranges, base) (t : Placement.tenant) ->
        let extra =
          match t.runtime with
          | Scenario.Percpu | Scenario.Worksteal -> 0
          | Scenario.Centralized | Scenario.Hybrid -> 1
        in
        let width = t.burstable + extra in
        (List.init width (fun i -> base + i) :: ranges, base + width))
      ([], 0) tenants
  in
  let ranges = List.rev ranges in
  let machine =
    setup_span mode "Machine.create" (fun () ->
        Machine.create engine
          (Topology.create ~sockets:1 ~cores_per_socket:total_cores))
  in
  let inj_rng = Engine.split_rng engine in
  let broker =
    setup_span mode "Broker.create" (fun () ->
        Broker.create ~engine ~capacity ~config:config.Placement.broker ())
  in
  let states =
    List.map2
      (fun (spec : Placement.tenant) cores ->
        let kmod = setup_span mode "Kmod.create" (fun () -> Kmod.create machine) in
        let rt =
          setup_span mode (Scenario.runtime_name spec.runtime ^ ".create") (fun () ->
              Rt.create spec.runtime machine kmod ~cores
                ~quantum:config.Placement.quantum ())
        in
        let app = setup_span mode "create_app" (fun () -> rt.create_app ~name:spec.name) in
        rt.set_allowance spec.guaranteed;
        {
          t_spec = spec;
          t_rt = rt;
          t_kmod = kmod;
          t_app = app;
          t_sub = submitter mode rt;
          t_rng = Engine.split_rng engine;
          t_hist = Histogram.create ();
          s_submitted = 0;
          s_completed = 0;
          s_gave_up = 0;
        })
      tenants ranges
  in
  let arrival_rngs = List.map (fun _ -> Engine.split_rng engine) states in
  setup_span mode "Broker.register" (fun () ->
      List.iteri
        (fun i st ->
          let policy =
            match st.t_spec.kind with
            | Alloc_policy.Lc -> Alloc_policy.delay ()
            | Alloc_policy.Be -> Alloc_policy.utilization ()
          in
          Broker.register broker ~tenant:i ~name:st.t_spec.name ~kind:st.t_spec.kind
            ~policy
            ~bounds:
              {
                Allocator.guaranteed = st.t_spec.guaranteed;
                burstable = st.t_spec.burstable;
              }
            ~initial:st.t_spec.guaranteed
            ~sample:(fun () -> st.t_rt.congestion ())
            ~apply:(fun ~granted ~delta ->
              st.t_rt.set_allowance granted;
              Costs.app_switch_ns * abs delta))
        states);
  let injector =
    setup_span mode "Injector.create" (fun () ->
        let injector = Injector.create ~engine ~rng:inj_rng () in
        if faults <> [] then Injector.arm_tenants injector ~broker faults;
        injector)
  in
  Broker.start broker;
  let total_submitted = ref 0 and total_settled = ref 0 and last_completion = ref 0 in
  let next_req = request_ids mode in
  let arrive st at =
    st.s_submitted <- st.s_submitted + 1;
    incr total_submitted;
    let req = next_req () in
    Loadgen.retrying engine ~budget:config.Placement.retry_budget
      ~backoff:config.Placement.retry_backoff
      ~attempt:(fun _k done_ ->
        exec st.t_sub st.t_app ~name:st.t_spec.name ~req ~rng:st.t_rng
          ~deadline:config.Placement.deadline
          ~fail:(fun () -> done_ false)
          st.t_spec.shape
          (fun () ->
            let now = Engine.now engine in
            last_completion := max !last_completion now;
            st.s_completed <- st.s_completed + 1;
            incr total_settled;
            Histogram.record st.t_hist (now - at);
            done_ true))
      (fun () ->
        st.s_gave_up <- st.s_gave_up + 1;
        incr total_settled)
  in
  setup_span mode "Loadgen.stream" (fun () ->
      List.iter2
        (fun st arrival_rng ->
          let next = Arrival.sampler st.t_spec.arrival arrival_rng in
          Loadgen.stream engine
            ~next:(fun ~now -> if st.s_submitted >= requests then None else next ~now)
            (fun at -> arrive st at))
        states arrival_rngs);
  fun () ->
    let slowest =
      List.fold_left
        (fun acc (t : Placement.tenant) ->
          max acc (float_of_int requests /. Arrival.mean_rate t.arrival))
        0.0 tenants
    in
    let expected_ns = int_of_float (slowest *. 1e9) in
    let chunk = max (Time.ms 10) (expected_ns / 16) in
    let hard_cap = (8 * expected_ns) + Time.s 1 in
    let all_submitted () = List.for_all (fun st -> st.s_submitted >= requests) states in
    let rec drain until =
      run_until mode engine until;
      if ((not (all_submitted ())) || !total_settled < !total_submitted)
         && until < hard_cap
      then drain (until + chunk)
    in
    drain chunk;
    Broker.stop broker;
    let result =
      {
        Placement.placement = name;
        capacity;
        target = requests;
        last_completion = !last_completion;
        tenants =
          List.mapi
            (fun i st ->
              {
                Placement.t_name = st.t_spec.name;
                t_runtime = st.t_rt.name;
                t_kind =
                  (match st.t_spec.kind with
                  | Alloc_policy.Lc -> "lc"
                  | Alloc_policy.Be -> "be");
                t_guaranteed = st.t_spec.guaranteed;
                t_burstable = st.t_spec.burstable;
                submitted = st.s_submitted;
                completed = st.s_completed;
                gave_up = st.s_gave_up;
                deadline_drops = (st.t_rt.counters ()).deadline_drops;
                final_granted = Broker.granted broker ~tenant:i;
                final_health = Broker.health_name (Broker.health broker ~tenant:i);
                core_ns = Broker.core_ns broker ~tenant:i;
                latency = st.t_hist;
                allowance = Broker.series broker ~tenant:i;
              })
            states;
        fairness = Broker.fairness broker;
        grants = Broker.grants broker;
        reclaims = Broker.reclaims broker;
        yields = Broker.yields broker;
        degradations = Broker.degradations broker;
        quarantines = Broker.quarantines broker;
        releases = Broker.releases broker;
        crashes = Broker.crashes broker;
        charged_ns = Broker.charged_ns broker;
      }
    in
    let interrupts, user_interrupts = Rt.interrupts machine in
    ( placement_outcome result,
        {
          events = Engine.events_fired engine;
          interrupts;
          user_interrupts;
          kmod_steals = List.fold_left (fun acc st -> acc + Kmod.steals st.t_kmod) 0 states;
          rt = List.fold_left (fun acc st -> Rt.add acc (st.t_rt.counters ())) Rt.zero states;
          alloc_ticks = List.fold_left (fun acc st -> acc + allocator_ticks st.t_rt) 0 states;
          broker_ticks = Broker.ticks broker;
          nic_drops = 0;
          injected = Injector.injected injector;
        } )

let placement ~seed ~tenants ~scenario ~requests =
  let label = Printf.sprintf "fleet/%s" scenario in
  {
    label;
    library =
      (fun () ->
        (* run_cell raises when its own reconciliation fails *)
        match Oversub.run_cell ~seed ~mix:fleet_mix ~n:tenants ~scenario ~requests with
        | r -> placement_outcome r
        | exception Failure msg ->
            {
              digest = msg;
              submitted = tenants * requests;
              completed = 0;
              errors = [ label ^ ": " ^ msg ];
            });
    setup = placement_setup ~seed ~tenants ~scenario ~requests;
  }
