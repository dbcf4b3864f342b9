(* The host-cost benchmark of the simulator.

     skybench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload's cells (see [workloads]) again and again for S
   seconds, one after another in one domain, and prints as its last line
   one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
   the per-layer ones (see perfbench/ledger.json for what each means and
   which end-to-end metric it should move).  With --trace 0 the timed
   runs go through the library's own runners (see Cells).

   Output check, on every run: all repetitions of a cell give the same
   digest, the library's runner and the benchmark's copy included; each
   cell's reconciliation identity holds; and the cells rerun through the
   library at [Reference.seed] give exactly the digests recorded in
   [Reference].  Any mismatch makes the result "correct": false and the
   exit code 1. *)

module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist
module Scenario = Skyloft_scenario.Scenario
module Arrival = Skyloft_scenario.Arrival
module Scale = Skyloft_experiments.Scale
module Oversub = Skyloft_experiments.Oversub
module Fault_sweep = Skyloft_experiments.Fault_sweep
module Placement = Skyloft_scenario.Placement

(* ---- workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  cells : seed:int -> Cells.cell list;
  traffic : Layers.traffic;
      (* the dominant arrival process and service distribution, at the
         workload's core widths: what the microbenches are sized from *)
}

let dispatcher_extra = function
  | Scenario.Percpu | Scenario.Worksteal -> 0
  | Scenario.Centralized | Scenario.Hybrid -> 1

let scale_traffic (sc : Scenario.t) ~arrival ~service =
  {
    Layers.width = (fun k -> sc.cores + dispatcher_extra k);
    quantum = sc.quantum;
    watchdog = None;
    arrival;
    service;
  }

(* Steady's 32,000 requests at 600 krps and fleet's 1,250 per tenant
   (the 50 krps BE tenants set the pace) end their streams mid-way
   between the 10 ms drain chunks of Scenario.run and Placement.run, so
   every seed drains the same simulated time; at 30,000 and 1,000 the
   seeds split between two chunk counts. *)
let steady_requests = 32_000
let burst_requests = 15_000
let fault_duration = Time.ms 40
let fleet_tenants = 8
let fleet_requests = 1_250

(* Fleet tenants of one runtime all get the same burstable range. *)
let fleet_traffic () =
  let tenants = Oversub.tenants ~mix:Cells.fleet_mix ~n:fleet_tenants ~capacity:(2 * fleet_tenants) in
  {
    Layers.width =
      (fun k ->
        let t = List.find (fun (t : Placement.tenant) -> t.runtime = k) tenants in
        t.burstable + dispatcher_extra k);
    quantum = (Oversub.placement_config ~scenario:"none").Placement.quantum;
    watchdog = None;
    arrival = Arrival.Poisson { rate_rps = Oversub.lc_rate };
    service = Dist.Exponential { mean = Time.us 5 };
  }

(* [streams] independent arrival streams per runtime: cell seeds [seed],
   [seed + 7919], ...  An MMPP stream's host cost per request follows the
   depth of its few on/off cycles, so burst averages six streams; short
   ones, because a cell's host-speed scale (Calib) is sampled only at its
   two ends. *)
let scale_cells sc ~streams ~requests ~seed =
  List.concat_map
    (fun k ->
      List.map
        (fun runtime ->
          let c = Cells.scenario ~seed:(seed + (7919 * k)) ~requests ~runtime sc in
          if k = 0 then c else { c with label = Printf.sprintf "%s/stream%d" c.label k })
        Rt.kinds)
    (List.init streams Fun.id)

let workloads =
  [
    {
      name = "steady";
      cells = scale_cells Scale.steady_pareto ~streams:1 ~requests:steady_requests;
      traffic =
        scale_traffic Scale.steady_pareto
          ~arrival:(Arrival.Poisson { rate_rps = 600_000.0 })
          ~service:Dist.pareto_heavy;
    };
    {
      name = "burst";
      cells = scale_cells Scale.bursty_mmpp ~streams:6 ~requests:burst_requests;
      traffic =
        scale_traffic Scale.bursty_mmpp
          ~arrival:
            (Arrival.Mmpp
               {
                 rate_on = 1_600_000.0;
                 rate_off = 100_000.0;
                 mean_on = Time.ms 2;
                 mean_off = Time.ms 6;
               })
          ~service:(Dist.Exponential { mean = Time.us 1 });
    };
    {
      name = "faults";
      cells =
        (fun ~seed ->
          List.concat_map
            (fun runtime ->
              List.map
                (fun rate -> Cells.fault ~seed ~duration:fault_duration ~runtime ~rate)
                Fault_sweep.fault_rates)
            Rt.kinds);
      traffic =
        {
          Layers.width =
            (fun k -> List.length Fault_sweep.percpu_cores + dispatcher_extra k);
          quantum = Fault_sweep.quantum;
          watchdog = Some Fault_sweep.watchdog_bound;
          arrival = Arrival.Poisson { rate_rps = Fault_sweep.rate_rps };
          service = Dist.dispersive;
        };
    };
    {
      name = "fleet";
      cells =
        (fun ~seed ->
          List.map
            (fun scenario ->
              Cells.placement ~seed ~tenants:fleet_tenants ~scenario
                ~requests:fleet_requests)
            Oversub.scenarios);
      traffic = fleet_traffic ();
    };
  ]

(* ---- one repetition ------------------------------------------------------- *)

type cell_run = {
  setup_s : float;  (* process CPU seconds as measured *)
  run_s : float;  (* host seconds, scaled to the reference host speed *)
  raw_run_s : float;  (* process CPU seconds as measured *)
  words : float;  (* minor words allocated by the run, set-up excluded *)
  outcome : Cells.outcome;
  counts : Cells.counts option;  (* from the copy only *)
}

(* How a cell is run: through the library's runner, or through the
   benchmark's copy in a given mode. *)
type how = Library | Copy of Cells.mode

(* One cell, timed between two calibration samples (see Calib); its run
   time is scaled by the reference over their mean.  Set-up time is not:
   set-up fills fresh arrays (1 MB of Timeseries per runtime), and its
   speed follows the loops' only in part (over five fleet runs the
   loops' time fell by a fifth and raw set-up time by a tenth, so the
   scaled set-up time rose by 15%).  Set-up is always the copy's, timed
   on its own.  With [Library] the copy's set-up is
   built and dropped, the library's runner then runs the whole cell, and
   the set-up time and words are subtracted from it.  The run's time
   includes a full major collection at its end, so the major-heap work
   the cell's garbage leaves is counted in the cell that made it; the
   collections outside the timed regions find only the benchmark's own
   garbage. *)
let time_cell how (c : Cells.cell) ~before =
  Gc.full_major ();
  let mode = match how with Library -> Cells.Plain | Copy m -> m in
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let run = c.setup mode in
  let t1 = Sys.time () in
  let w1 = Gc.minor_words () in
  let outcome, counts, run_s, words =
    match how with
    | Copy _ ->
        let o, k = run () in
        Gc.full_major ();
        (o, Some k, Sys.time () -. t1, Gc.minor_words () -. w1)
    | Library ->
        Gc.full_major ();
        let w2 = Gc.minor_words () in
        let t2 = Sys.time () in
        let o = c.library () in
        Gc.full_major ();
        let t3 = Sys.time () in
        let w3 = Gc.minor_words () in
        (o, None, t3 -. t2 -. (t1 -. t0), w3 -. w2 -. (w1 -. w0))
  in
  let after = Calib.sample () in
  let scale = Calib.reference_ns /. ((before +. after) /. 2.) in
  ( {
      setup_s = t1 -. t0;
      run_s = run_s *. scale;
      raw_run_s = run_s;
      words;
      outcome;
      counts;
    },
    after )

let run_rep how cells =
  Gc.full_major ();
  let before = ref (Calib.sample ()) in
  List.map
    (fun c ->
      let r, after = time_cell how c ~before:!before in
      before := after;
      r)
    cells

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let completed rep = isum (fun r -> r.outcome.Cells.completed) rep
let submitted rep = isum (fun r -> r.outcome.Cells.submitted) rep
let setup_s rep = sum (fun r -> r.setup_s) rep
let ns_per_request rep = sum (fun r -> r.run_s) rep *. 1e9 /. float_of_int (completed rep)

(* A typical repetition: each cell's median over the repetitions, so a
   disturbance that hits one cell of one repetition is filtered out. *)
let typical reps =
  let n = List.length (List.hd reps) in
  List.init n (fun i ->
      let runs = List.map (fun rep -> List.nth rep i) reps in
      let med f = Layers.median (List.map f runs) in
      {
        setup_s = med (fun r -> r.setup_s);
        run_s = med (fun r -> r.run_s);
        raw_run_s = med (fun r -> r.raw_run_s);
        words = med (fun r -> r.words);
        outcome = (List.hd runs).outcome;
        counts = None;
      })

(* Repetitions until [seconds] of wall time have passed, at least
   [min_reps]. *)
let min_reps = 3

let repeat ~seconds f =
  let t0 = Spans.now_ns () in
  let rec go acc n =
    let acc = f () :: acc in
    let elapsed = float_of_int (Spans.now_ns () - t0) /. 1e9 in
    if n + 1 >= min_reps && elapsed >= seconds then List.rev acc else go acc (n + 1)
  in
  go [] 0

(* ---- the output check --------------------------------------------------- *)

let errors = ref []
let bad_requests = ref 0
let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt
let md5 s = Digest.to_hex (Digest.string s)

(* Every repetition of a cell, through the library's runner or the copy,
   must reproduce the first one's digest, and every cell must
   reconcile. *)
let check_reps (cells : Cells.cell list) reps =
  match reps with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i (c : Cells.cell) ->
          let o = (List.nth first i).outcome in
          let bad = ref (o.Cells.errors <> []) in
          List.iter (fun e -> fail "%s" e) o.Cells.errors;
          if List.exists (fun rep -> (List.nth rep i).outcome.Cells.digest <> o.Cells.digest) rest
          then begin
            bad := true;
            fail "%s: digest differs between repetitions (library runner and copy included)"
              c.label
          end;
          if !bad then bad_requests := !bad_requests + (o.Cells.submitted * List.length reps))
        cells

let check_reference (w : workload) rep =
  let expected =
    match List.assoc_opt w.name Reference.digests with Some l -> l | None -> []
  in
  List.iter2
    (fun (c : Cells.cell) r ->
      let got = md5 r.outcome.Cells.digest in
      match List.assoc_opt c.label expected with
      | Some want when want = got -> ()
      | Some want ->
          bad_requests := !bad_requests + r.outcome.Cells.submitted;
          fail "%s: digest %s at reference seed %d, recorded %s" c.label got
            Reference.seed want
      | None -> fail "%s: no recorded reference digest" c.label)
    (w.cells ~seed:Reference.seed) rep

(* ---- reporting ------------------------------------------------------------- *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let print_result ~attempted metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-40s %14.4f %s\n" name value unit)
    metrics;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) (List.rev !errors);
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!errors = []) attempted
    (min attempted !bad_requests)
    json_metrics

(* ---- --trace 0: end-to-end metrics -------------------------------------- *)

(* The process starts with one untimed pass over the cells through the
   library's runners at the reference seed: it is checked against the
   recorded digests, and the peak RSS read after it (returned), before
   any calibration sample, is the workload's own memory at fixed
   inputs. *)
let reference_pass (w : workload) =
  let cells = w.cells ~seed:Reference.seed in
  let rep =
    List.map
      (fun (c : Cells.cell) ->
        let outcome = c.library () in
        { setup_s = 0.; run_s = 0.; raw_run_s = 0.; words = 0.; outcome; counts = None })
      cells
  in
  check_reps cells [ rep ];
  check_reference w rep;
  peak_rss_mb ()

let end_to_end (w : workload) ~seed ~seconds =
  let peak_rss = reference_pass w in
  Calib.warm_up ();
  let cells = w.cells ~seed in
  (* The first repetition at this seed runs the copy: it grows the heaps
     and checks the copy against the library's runs at this seed; it is
     not counted. *)
  let warm = run_rep (Copy Cells.Plain) cells in
  let reps = repeat ~seconds (fun () -> run_rep Library cells) in
  check_reps cells (warm :: reps);
  let t = typical reps in
  let per_request f = sum f t /. float_of_int (completed t) in
  Printf.printf "%s: seed %d, %d repetitions of %d cells, %d requests each\n"
    w.name seed (List.length reps) (List.length cells) (submitted t);
  Printf.printf "  unscaled CPU ns per request %.1f (host speed factor %.3f)\n"
    (per_request (fun r -> r.raw_run_s) *. 1e9)
    (sum (fun r -> r.raw_run_s) t /. sum (fun r -> r.run_s) t);
  print_result
    ~attempted:(isum submitted reps)
    [
      ("host_ns_per_request", per_request (fun r -> r.run_s) *. 1e9, "ns");
      ("setup_s", sum (fun r -> r.setup_s) t, "s");
      ("minor_words_per_request", per_request (fun r -> r.words), "words");
      ("peak_rss_mb", peak_rss, "MB");
      ("completed_share", float_of_int (completed t) /. float_of_int (submitted t), "share");
    ]

(* ---- --trace 1: per-layer metrics ------------------------------------------- *)

let spans_dir = ".bench_out"

let per_layer (w : workload) ~seed ~seconds =
  ignore (reference_pass w);
  Calib.warm_up ();
  let cells = w.cells ~seed in
  (* The library's runners first: every copy repetition below must
     give their digests. *)
  let warm = run_rep Library cells in
  (* Untraced and traced repetitions of the copy, alternated, for half
     the budget: their difference is the tracing overhead, and their
     digests must agree. *)
  let traced = ref [] and plain = ref [] in
  let last_spans = ref (Spans.create ()) in
  ignore
    (repeat ~seconds:(seconds /. 2.) (fun () ->
         plain := run_rep (Copy Cells.Plain) cells :: !plain;
         (* sized from the previous traced repetition: no regrowth *)
         let tr = Spans.create ~capacity:(!last_spans).Spans.n () in
         traced := run_rep (Copy (Cells.Traced tr)) cells :: !traced;
         last_spans := tr));
  let tr = !last_spans in
  (* One probe repetition: heap depth after every event, LC run-queue
     depth at every submit. *)
  let probe = Cells.probe () in
  let probed = run_rep (Copy (Cells.Probe probe)) cells in
  let all = (warm :: List.rev !plain) @ List.rev !traced @ [ probed ] in
  check_reps cells all;
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  Spans.write tr ~path:(Filename.concat spans_dir (w.name ^ "-spans.csv"));
  let requests = float_of_int (completed probed) in
  let count f =
    float_of_int (isum (fun r -> f (Option.get r.counts)) probed) /. requests
  in
  let rtc f = count (fun c -> f c.Cells.rt) in
  let med f l = Layers.median (List.map f l) in
  let self p = float_of_int (snd (Spans.self_where tr p)) /. requests in
  let starts prefix label =
    String.length label >= String.length prefix
    && String.sub label 0 (String.length prefix) = prefix
  in
  let pending_p50 = Cells.Depths.percentile probe.pending 50.0 in
  let central_p50 = Cells.Depths.percentile probe.central_runq 50.0 in
  let percore_p50 = Cells.Depths.percentile probe.percore_runq 50.0 in
  let splits =
    List.map (fun k -> (Scenario.runtime_name k, Layers.split w.traffic ~seed k)) Rt.kinds
  in
  let split_requests = (snd (List.hd splits)).Layers.requests in
  let submit_ns name =
    let n, s = Spans.self_where tr (String.equal ("submit:" ^ name)) in
    if n = 0 then nan else float_of_int s /. float_of_int n
  in
  let capacity = Layers.timeseries_default_capacity () in
  let core =
    List.concat_map
      (fun (name, (s : Layers.split)) ->
        let m suffix v unit = (Printf.sprintf "core.%s.%s" name suffix, v, unit) in
        [
          m "setup_us" s.setup_us "us";
          m "idle_ns_per_sim_us" s.idle_ns_per_sim_us "ns";
          m "idle_words_per_sim_us" s.idle_words_per_sim_us "words";
          m "idle_events_per_sim_us" s.idle_events_per_sim_us "count";
          m "marginal_ns_per_request" s.marginal_ns_per_request "ns";
          m "marginal_words_per_request" s.marginal_words_per_request "words";
          m "submit_ns" (submit_ns name) "ns";
        ])
      splits
  in
  Printf.printf "%s: seed %d, %d traced + %d untraced repetitions, %d spans\n" w.name
    seed (List.length !traced) (List.length !plain) tr.Spans.n;
  Printf.printf
    "  split sized from the workload: %d cores per-CPU (+1 dispatcher), %.1f us \
     windows, %d arrivals in the loaded one\n"
    (w.traffic.width Scenario.Percpu)
    (Time.to_us_float (Layers.split_window w.traffic))
    split_requests;
  print_result
    ~attempted:(isum submitted all)
    ([
       ("sim.events_per_request", count (fun c -> c.Cells.events), "count");
       ("sim.pending_p50", float_of_int pending_p50, "count");
       ("sim.pending_max", float_of_int probe.pending.Cells.Depths.max, "count");
       ("sim.eventq_ns_per_op", Layers.eventq_ns ~seed ~depth:pending_p50, "ns");
       ("sim.engine_fire_ns", Layers.engine_fire_ns ~depth:pending_p50, "ns");
       ("sim.dist_sample_ns", Layers.dist_sample_ns ~seed w.traffic.service, "ns");
       ("hw.interrupts_per_request", count (fun c -> c.Cells.interrupts), "count");
       ("hw.user_interrupts_per_request", count (fun c -> c.Cells.user_interrupts), "count");
       ("kernel.kmod_steals_per_request", count (fun c -> c.Cells.kmod_steals), "count");
     ]
    @ core
    @ [
        ("core.task_switches_per_request", rtc (fun c -> c.Rt.switches), "count");
        ("core.preemptions_per_request", rtc (fun c -> c.Rt.preemptions), "count");
        ("core.timer_ticks_per_request", rtc (fun c -> c.Rt.ticks), "count");
        ("core.steals_per_request", rtc (fun c -> c.Rt.steals), "count");
        ("core.be_preemptions_per_request", rtc (fun c -> c.Rt.be_preemptions), "count");
        ("core.central_runq_p50", float_of_int central_p50, "count");
        ("core.percore_runq_p50", float_of_int percore_p50, "count");
        ("core.split_cores", float_of_int (w.traffic.width Scenario.Percpu), "count");
        ("core.split_window_us", Time.to_us_float (Layers.split_window w.traffic), "us");
        ("core.split_requests", float_of_int split_requests, "count");
        ( "policies.work_stealing.enqueue_dequeue_ns",
          Layers.policy_ns Layers.work_stealing ~depth:percore_p50,
          "ns" );
        ( "policies.shinjuku_shenango.enqueue_dequeue_ns",
          Layers.policy_ns Layers.shinjuku_shenango ~depth:central_p50,
          "ns" );
      ]
    @ [
        ("alloc.broker_tick_ns", Layers.broker_tick_ns ~tenants:fleet_tenants, "ns");
        ("alloc.broker_tenants", float_of_int fleet_tenants, "count");
        ("alloc.broker_ticks_per_request", count (fun c -> c.Cells.broker_ticks), "count");
        ("alloc.allocator_tick_ns", Layers.allocator_tick_ns ~cores:Scale.cores, "ns");
        ("alloc.allocator_ticks_per_request", count (fun c -> c.Cells.alloc_ticks), "count");
        ("net.loadgen_draw_ns", Layers.loadgen_draw_ns ~seed w.traffic.arrival, "ns");
        ("net.nic_drops_per_request", count (fun c -> c.Cells.nic_drops), "count");
        ("stats.histogram_record_ns", Layers.histogram_record_ns ~seed w.traffic.service, "ns");
        ("stats.timeseries_create_us", Layers.timeseries_create_us (), "us");
        ("stats.timeseries_capacity", float_of_int capacity, "count");
        ("stats.trace_push_ns", Layers.trace_push_ns (), "ns");
        ("fault.injected_per_request", count (fun c -> c.Cells.injected), "count");
        ("trace.run_self_ns", self (String.equal "run:Engine.run"), "ns");
        ("trace.submit_self_ns", self (starts "submit:"), "ns");
        ("trace.complete_self_ns", self (starts "complete:"), "ns");
        ("trace.setup_self_ns", self (starts "setup:"), "ns");
        ( "trace.overhead_ns_per_request",
          med ns_per_request !traced -. med ns_per_request !plain,
          "ns" );
        ("trace.spans_per_request", float_of_int tr.Spans.n /. requests, "count");
        ( "cells.setup_share",
          med (fun rep -> setup_s rep /. (setup_s rep +. sum (fun r -> r.raw_run_s) rep)) !plain,
          "share" );
      ])

(* ---- --record: the entries of [Reference.digests] --------------------- *)

(* Prints the workload's reference entry for perfbench/reference.ml.  Only
   for a change that is meant to alter simulated behaviour. *)
let record (w : workload) =
  let cells = w.cells ~seed:Reference.seed in
  let rep = run_rep Library cells in
  Printf.printf "    ( %S,\n      [\n" w.name;
  List.iter2
    (fun (c : Cells.cell) r ->
      Printf.printf "        (%S, %S);\n" c.label (md5 r.outcome.Cells.digest))
    cells rep;
  Printf.printf "      ] );\n"

(* ---- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref Reference.seed and seconds = ref 10 and trace = ref 0 in
  let record_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed (default: the reference seed)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--record", Arg.Set record_only, " print the workload's reference digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "skybench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "skybench: unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !seconds < 1 then (prerr_endline "skybench: --seconds must be >= 1"; exit 2);
  let seconds = float_of_int !seconds in
  (match !trace with
  | _ when !record_only -> record w
  | 0 -> end_to_end w ~seed:!seed ~seconds
  | 1 -> per_layer w ~seed:!seed ~seconds
  | _ -> prerr_endline "skybench: --trace must be 0 or 1"; exit 2);
  if !errors <> [] then exit 1
