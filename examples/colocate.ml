(* Co-scheduling a latency-critical service with a batch application —
   the paper's multi-application story (§3.3, Figure 7b/7c).

   A Skyloft runtime serves a bursty LC request stream; a batch
   application soaks up the idle cores.  The core allocator
   (Shenango-style Delay policy: reclaim when the oldest LC request has
   queued too long) moves cores between the two applications, preempting
   batch workers with user IPIs — the Single Binding Rule is upheld by the
   kernel module, and every move pays the §5.4 inter-app switch cost.

   The same colocation runs twice: once under the centralized dispatcher
   and once under the hybrid runtime, which is the same runtime with its
   mode switch on.  The BE workers, the allocator and the accounting are
   shared, so the second run differs only in the dispatch mechanism.

     dune exec examples/colocate.exe *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Centralized = Skyloft.Centralized
module App = Skyloft.App
module Summary = Skyloft_stats.Summary
module Dist = Skyloft_sim.Dist
module Loadgen = Skyloft_net.Loadgen
module Packet = Skyloft_net.Packet
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy

let duration = Time.ms 100

let alloc_cfg () =
  {
    (Allocator.default_config ()) with
    Allocator.policy = Alloc_policy.delay ~threshold:(Time.us 10) ();
  }

let run_colocation name ?percore_hz ctor =
  let engine = Engine.create ~seed:11 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt =
    Centralized.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2; 3; 4 ]
      ~quantum:(Time.us 30) ~alloc:(alloc_cfg ()) ?percore_hz ctor
  in
  let lc = Centralized.create_app rt ~name:"lc-service" in
  let batch = Centralized.create_app rt ~name:"batch" in
  Centralized.attach_be_app rt batch ~chunk:(Time.us 50) ~workers:4;

  (* A bursty LC stream: 2ms of high load alternating with 2ms of quiet. *)
  let rng = Engine.split_rng engine in
  let service = Dist.Exponential { mean = Time.us 20 } in
  let rec burst t =
    if t < duration then begin
      Loadgen.poisson engine ~rng ~rate_rps:150_000.0 ~service ~start:t
        ~duration:(Time.ms 2) (fun (pkt : Packet.t) ->
          ignore
            (Centralized.submit rt lc ~name:"req" ~service:pkt.service
               (Coro.compute_then_exit pkt.service)));
      burst (t + Time.ms 4)
    end
  in
  burst 0;
  Engine.run ~until:(duration + Time.ms 10) engine;

  let total = 4 * (duration + Time.ms 10) in
  Printf.printf "---- %s ----\n" name;
  Printf.printf "LC requests served:  %d (p99 latency %s)\n"
    (Summary.requests lc.App.summary)
    (Format.asprintf "%a" Time.pp (Summary.latency_p lc.App.summary 99.0));
  Printf.printf "LC CPU share:        %.1f%%\n"
    (100.0 *. App.cpu_share lc ~total_ns:total);
  Printf.printf "batch CPU share:     %.1f%%  (reclaimed %d times by user IPIs%s)\n"
    (100.0 *. App.cpu_share batch ~total_ns:total)
    (Centralized.be_preemptions rt)
    (match percore_hz with
    | None -> ""
    | Some _ ->
        Printf.sprintf ", %d mode switches" (Centralized.mode_switches rt));
  (match Centralized.allocator rt with
  | Some alloc ->
      Printf.printf
        "core allocator:      %s policy, %d grants / %d reclaims / %d yields\n"
        (Allocator.policy_name alloc)
        (Allocator.grants alloc) (Allocator.reclaims alloc)
        (Allocator.yields alloc);
      Printf.printf "                     %s of inter-app switch cost charged\n"
        (Format.asprintf "%a" Time.pp (Allocator.charged_ns alloc))
  | None -> ())

let () =
  run_colocation "centralized dispatcher" (Skyloft_policies.Shinjuku.create ());
  run_colocation "hybrid runtime" ~percore_hz:100_000
    (fst (Skyloft_policies.Shinjuku_shenango.create ()));
  Printf.printf
    "=> the batch app runs in the LC service's idle valleys and is evicted\n";
  Printf.printf
    "   within ~10us of queueing delay when a burst arrives (Figure 7c);\n";
  Printf.printf
    "   both runtimes drive the same allocator through the shared substrate\n"
