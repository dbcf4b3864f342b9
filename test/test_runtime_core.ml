(* Runtime_core exercised through a minimal in-test stub runtime: a bare
   synchronous DISPATCH over N execution units and a FIFO policy, nothing
   else.  If the substrate really carries the shared machinery — lifecycle
   + attribution, app table, BE occupancy, deadline kills, watchdog
   bookkeeping — then even this degenerate runtime gets all of it for
   free, and these tests pin that down without either real runtime in the
   loop. *)

open Alcotest
module Engine = Skyloft_sim.Engine
module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Trace = Skyloft_stats.Trace
module Attribution = Skyloft_obs.Attribution
module App = Skyloft.App
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue
module Rc = Skyloft.Runtime_core

type stub = {
  rc : Rc.t;
  execs : Rc.exec array;
  incoming : int array;  (* simulated in-flight assignment per unit *)
  engine : Engine.t;
}

let reschedule st ex ~prev:_ =
  if ex.Rc.current = None then begin
    let pick () =
      let be =
        if Rc.be_occupancy st.rc < st.rc.Rc.be_allowance then
          Runqueue.pop_head st.rc.Rc.be_queue
        else None
      in
      match be with
      | Some task -> Some task
      | None -> st.rc.Rc.policy.task_dequeue ~cpu:ex.Rc.exec_core
    in
    match Rc.next_live st.rc pick with
    | Some task ->
        ignore (Rc.begin_run st.rc ex task ~switch_cost:0);
        Rc.run_after_switch st.rc ex task ~switch_cost:0
    | None -> ()
  end

let kick_all st = Array.iter (fun ex -> reschedule st ex ~prev:None) st.execs

(* Every queue lives at cpu 0 so a FIFO policy behaves as one shared
   queue regardless of how many units the stub has. *)
let make ?(units = 1) () =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4)
  in
  let kmod = Kmod.create machine in
  let rc = Rc.create machine kmod ~record_wakeups:true ~trace_app_switches:false in
  let execs = Array.init units Rc.make_exec in
  let incoming = Array.make units (-1) in
  let st = { rc; execs; incoming; engine } in
  Rc.install_dispatch rc
    {
      Rc.d_units = execs;
      d_enqueue_cpu = (fun _ -> 0);
      d_incoming_app = (fun ex -> incoming.(ex.Rc.exec_core));
      d_released = (fun _ -> ());
      d_reschedule = (fun ex ~prev -> reschedule st ex ~prev);
    };
  Rc.install_policy rc (Skyloft_policies.Fifo.create ());
  st

let spawn st app ~name ?(service = 0) ?deadline ?on_drop body =
  let task =
    Rc.admit st.rc app ~name ~arrival:(Rc.now st.rc) ~service ~record:true body
  in
  st.rc.Rc.policy.task_init task;
  st.rc.Rc.policy.task_enqueue ~cpu:0 ~reason:Sched_ops.Enq_new task;
  kick_all st;
  (match deadline with
  | Some d ->
      Rc.arm_deadline st.rc ?on_drop task ~deadline:d ~who:"stub"
  | None -> ());
  task

let wake st task =
  Rc.awaken st.rc task ~place:(fun task ->
      ignore (st.rc.Rc.policy.task_wakeup ~waker_cpu:0 task);
      kick_all st)

(* ---- app table ----------------------------------------------------------- *)

let test_find_app_many () =
  let st = make () in
  let apps =
    List.init 200 (fun i ->
        Rc.new_app st.rc ~name:(Printf.sprintf "app%d" i))
  in
  List.iter
    (fun (app : App.t) ->
      let found = Rc.find_app st.rc app.App.id in
      check bool
        (Printf.sprintf "app %d resolves to itself" app.App.id)
        true (found == app))
    apps;
  check string "daemon is id 0" st.rc.Rc.daemon.App.name
    (Rc.find_app st.rc 0).App.name;
  check_raises "unknown id raises Not_found" Not_found (fun () ->
      ignore (Rc.find_app st.rc 99_999))

(* ---- lifecycle + attribution --------------------------------------------- *)

let test_lifecycle_attribution () =
  let st = make () in
  let app = Rc.new_app st.rc ~name:"lc" in
  (* one yielding request, one blocking request woken externally *)
  ignore
    (spawn st app ~name:"yielder" ~service:(Time.us 50)
       (Coro.Compute
          ( Time.us 20,
            fun () ->
              Coro.Yield
                (fun () -> Coro.Compute (Time.us 30, fun () -> Coro.Exit)) )));
  let blocker =
    spawn st app ~name:"blocker" ~service:(Time.us 20)
      (Coro.Compute
         ( Time.us 10,
           fun () ->
             Coro.Block (fun () -> Coro.Compute (Time.us 10, fun () -> Coro.Exit))
         ))
  in
  ignore (Engine.after st.engine (Time.us 200) (fun () -> wake st blocker));
  Engine.run ~until:(Time.ms 2) st.engine;
  check int "both requests completed" 2 (Summary.requests app.App.summary);
  check int "attribution recorded both" 2 (Attribution.requests app.App.attribution);
  check int "identity holds (no mismatches)" 0
    (Attribution.mismatches app.App.attribution);
  check int "busy time is the compute total" (Time.us 70) app.App.busy_ns;
  check int "no tasks left alive" 0 app.App.tasks_alive;
  (match st.rc.Rc.wakeups with
  | Some h ->
      check bool "wakeup-to-dispatch latency sampled" false (Histogram.is_empty h)
  | None -> fail "stub asked for wakeup recording");
  (* stall must cover the blocked interval: response - service - queue > 150us *)
  check bool "blocked interval attributed as stall" true
    (Histogram.mean (Attribution.stall app.App.attribution) > 0.0)

(* ---- deadline kills ------------------------------------------------------- *)

let test_deadline_kills () =
  let st = make () in
  let app = Rc.new_app st.rc ~name:"lc" in
  let dropped = ref [] in
  let on_drop (task : Task.t) = dropped := task.Task.name :: !dropped in
  (* A runs and is killed mid-flight; C is killed while still queued behind
     A (discarded lazily at dequeue); B completes; D blocks and is killed
     while blocked. *)
  ignore
    (spawn st app ~name:"A" ~deadline:(Time.us 100) ~on_drop
       (Coro.Compute (Time.ms 1, fun () -> Coro.Exit)));
  ignore
    (spawn st app ~name:"C" ~deadline:(Time.us 60) ~on_drop
       (Coro.Compute (Time.us 50, fun () -> Coro.Exit)));
  ignore
    (spawn st app ~name:"B" ~service:(Time.us 50) ~deadline:(Time.ms 2)
       (Coro.Compute (Time.us 50, fun () -> Coro.Exit)));
  ignore
    (spawn st app ~name:"D" ~deadline:(Time.us 300) ~on_drop
       (Coro.Compute
          ( Time.us 10,
            fun () -> Coro.Block (fun () -> Coro.Exit) )));
  Engine.run ~until:(Time.ms 3) st.engine;
  check int "three deadline drops" 3 st.rc.Rc.deadline_drops;
  check int "only B completed" 1 (Summary.requests app.App.summary);
  check int "drops counted in the summary" 3 (Summary.drops app.App.summary);
  check (list string) "on_drop saw A, C and D"
    [ "A"; "C"; "D" ]
    (List.sort compare !dropped);
  check int "no tasks left alive" 0 app.App.tasks_alive;
  check_raises "non-positive deadline rejected"
    (Invalid_argument "stub: deadline must be positive") (fun () ->
      ignore
        (spawn st app ~name:"bad" ~deadline:0 (Coro.Compute (1, fun () -> Coro.Exit))))

(* ---- watchdog bookkeeping ------------------------------------------------- *)

let test_watchdog_rescue () =
  let st = make () in
  let app = Rc.new_app st.rc ~name:"lc" in
  let trace = Trace.create () in
  st.rc.Rc.trace <- Some trace;
  let bound = Time.us 50 in
  (* The stub's scan: any task a full bound past its start is deposed and
     requeued — Runtime_core counts, samples and traces the rescue. *)
  let scan ~bound =
    Array.iter
      (fun ex ->
        match ex.Rc.current with
        | Some task when not (Rc.Eventq.is_null ex.Rc.completion) ->
            let overrun = Rc.now st.rc - task.Task.run_start - bound in
            if overrun > 0 then begin
              Rc.rescued st.rc ex ~late:overrun;
              match Rc.depose st.rc ex ~overhead:0 with
              | Some t ->
                  st.rc.Rc.policy.task_enqueue ~cpu:0
                    ~reason:Sched_ops.Enq_preempted t;
                  reschedule st ex ~prev:(Some t)
              | None -> ()
            end
        | _ -> ())
      st.execs
  in
  Rc.start_watchdog st.rc ~bound:(Some bound) scan;
  ignore
    (spawn st app ~name:"hog" ~service:(Time.us 400)
       (Coro.Compute (Time.us 400, fun () -> Coro.Exit)));
  Engine.run ~until:(Time.ms 2) st.engine;
  check bool "rescues counted" true (st.rc.Rc.rescues > 0);
  check bool "detection latency sampled" false
    (Histogram.is_empty st.rc.Rc.rescue_detect);
  let rescue_instants =
    Trace.fold trace
      (fun acc ev ->
        match ev with
        | Trace.Instant { kind = Trace.Watchdog_rescue; _ } -> acc + 1
        | _ -> acc)
      0
  in
  check int "one trace instant per rescue" st.rc.Rc.rescues rescue_instants;
  (* the rescued task still finishes, and its attribution still adds up *)
  check int "hog completed despite rescues" 1 (Summary.requests app.App.summary);
  check int "identity survives depose/requeue" 0
    (Attribution.mismatches app.App.attribution)

(* ---- BE occupancy and attachment validation ------------------------------- *)

let test_be_occupancy () =
  let st = make ~units:2 () in
  let be = Rc.new_app st.rc ~name:"batch" in
  Rc.spawn_be_workers st.rc be ~chunk:(Time.us 10) ~workers:2 ~who:"stub";
  check int "nothing running yet" 0 (Rc.be_occupancy st.rc);
  (* an assignment in flight counts as occupancy before it lands *)
  st.incoming.(0) <- be.App.id;
  check int "in-flight assignment counted" 1 (Rc.be_occupancy st.rc);
  st.incoming.(0) <- -1;
  kick_all st;
  check int "both units running BE" 2 (Rc.be_occupancy st.rc);
  check bool "BE tasks recognised" true
    (match st.execs.(0).Rc.current with
    | Some task -> Rc.is_be st.rc task
    | None -> false);
  check_raises "second BE app rejected"
    (Invalid_argument "stub: BE app already set") (fun () ->
      Rc.spawn_be_workers st.rc be ~chunk:(Time.us 10) ~workers:1 ~who:"stub");
  (* an app from some other runtime's table is refused *)
  let foreign = App.create ~id:999 ~name:"foreign" in
  let st2 = make () in
  check_raises "foreign app rejected"
    (Invalid_argument "stub: app not created by this runtime") (fun () ->
      Rc.spawn_be_workers st2.rc foreign ~chunk:(Time.us 10) ~workers:1
        ~who:"stub")

let suite =
  [
    test_case "find_app is exact over many apps" `Quick test_find_app_many;
    test_case "lifecycle keeps the attribution identity" `Quick
      test_lifecycle_attribution;
    test_case "deadline kills in every state" `Quick test_deadline_kills;
    test_case "watchdog bookkeeping" `Quick test_watchdog_rescue;
    test_case "BE occupancy counts in-flight work" `Quick test_be_occupancy;
  ]
