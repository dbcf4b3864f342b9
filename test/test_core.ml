(* Tests for the Skyloft core: tasks, runqueues, the per-CPU runtime
   (timer delegation, preemption, multi-app switching) and the centralized
   runtime (dispatcher, quantum preemption, BE co-scheduling). *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Task = Skyloft.Task
module Runqueue = Skyloft.Runqueue
module Sched_ops = Skyloft.Sched_ops
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Centralized = Skyloft.Centralized
module Trace = Skyloft_stats.Trace
module Runtime = Skyloft_runtime.Runtime

let check = Alcotest.check

(* ---- Runqueue ---- *)

(* Task ids are allocated per run by Runtime_core; tests mint their own. *)
let next_id = ref 0

let mk_task name =
  incr next_id;
  Task.create ~id:!next_id ~app:1 ~name Coro.Exit

let test_runqueue_fifo () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  Runqueue.push_tail q a;
  Runqueue.push_tail q b;
  Runqueue.push_head q c;
  check Alcotest.int "length" 3 (Runqueue.length q);
  check (Alcotest.list Alcotest.string) "order c a b" [ "c"; "a"; "b" ]
    (List.map (fun (t : Task.t) -> t.name) (Runqueue.to_list q));
  check Alcotest.string "pop head" "c"
    (match Runqueue.pop_head q with Some t -> t.Task.name | None -> "?");
  check Alcotest.string "pop tail" "b"
    (match Runqueue.pop_tail q with Some t -> t.Task.name | None -> "?");
  check Alcotest.int "one left" 1 (Runqueue.length q)

let test_runqueue_remove () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  List.iter (Runqueue.push_tail q) [ a; b; c ];
  check Alcotest.bool "remove middle" true (Runqueue.remove q b);
  check Alcotest.bool "remove again is false" false (Runqueue.remove q b);
  check (Alcotest.list Alcotest.string) "a c left" [ "a"; "c" ]
    (List.map (fun (t : Task.t) -> t.name) (Runqueue.to_list q))

let test_runqueue_double_insert_rejected () =
  let q = Runqueue.create () in
  let a = mk_task "a" in
  Runqueue.push_tail q a;
  check Alcotest.bool "double insert raises" true
    (try
       Runqueue.push_tail q a;
       false
     with Invalid_argument _ -> true)

let rq_names q = List.map (fun (t : Task.t) -> t.name) (Runqueue.to_list q)

let test_runqueue_pop_tail_drain () =
  let q = Runqueue.create () in
  List.iter (fun n -> Runqueue.push_tail q (mk_task n)) [ "a"; "b"; "c" ];
  let pop () =
    match Runqueue.pop_tail q with Some t -> t.Task.name | None -> "-"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  check (Alcotest.list Alcotest.string) "tail-first drain then empty"
    [ "c"; "b"; "a"; "-" ] [ p1; p2; p3; p4 ];
  check Alcotest.bool "empty after drain" true (Runqueue.is_empty q)

let test_runqueue_remove_ends () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  List.iter (Runqueue.push_tail q) [ a; b; c ];
  check Alcotest.bool "remove head" true (Runqueue.remove q a);
  check (Alcotest.list Alcotest.string) "b c left" [ "b"; "c" ] (rq_names q);
  check Alcotest.bool "remove tail" true (Runqueue.remove q c);
  check (Alcotest.list Alcotest.string) "b left" [ "b" ] (rq_names q);
  check Alcotest.bool "remove last" true (Runqueue.remove q b);
  check Alcotest.bool "empty" true (Runqueue.is_empty q);
  check Alcotest.bool "remove from empty is false" false (Runqueue.remove q b)

let test_runqueue_repush_after_remove () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" in
  List.iter (Runqueue.push_tail q) [ a; b ];
  check Alcotest.bool "remove a" true (Runqueue.remove q a);
  (* a removed task is fully unlinked: re-pushing must not raise and must
     land at the requested end *)
  Runqueue.push_tail q a;
  check (Alcotest.list Alcotest.string) "b a after re-push" [ "b"; "a" ]
    (rq_names q);
  check Alcotest.bool "remove b" true (Runqueue.remove q b);
  Runqueue.push_head q b;
  check (Alcotest.list Alcotest.string) "b a after head re-push" [ "b"; "a" ]
    (rq_names q)

let test_runqueue_steal_half () =
  let victim = Runqueue.create () and thief = Runqueue.create () in
  (* owner-head LIFO: push_head in arrival order, so the tail is oldest *)
  List.iter (fun n -> Runqueue.push_head victim (mk_task n)) [ "t1"; "t2"; "t3"; "t4"; "t5" ];
  let moved = Runqueue.steal_half ~from:victim ~into:thief in
  check Alcotest.int "ceil(5/2) moved" 3 moved;
  check (Alcotest.list Alcotest.string) "victim keeps the newest"
    [ "t5"; "t4" ] (rq_names victim);
  check (Alcotest.list Alcotest.string) "thief got the oldest, oldest-first"
    [ "t1"; "t2"; "t3" ] (rq_names thief);
  (* a single queued task is stealable (rounding up) *)
  let v1 = Runqueue.create () and th1 = Runqueue.create () in
  Runqueue.push_head v1 (mk_task "solo");
  check Alcotest.int "1 of 1 moved" 1 (Runqueue.steal_half ~from:v1 ~into:th1);
  check Alcotest.bool "victim empty" true (Runqueue.is_empty v1);
  check Alcotest.int "nothing to steal from empty" 0
    (Runqueue.steal_half ~from:v1 ~into:th1)

(* Model test: steal-half against a plain-list reference.  The victim is
   an owner-head LIFO deque holding tasks 1..n (n from the generator); the
   reference splits the arrival-ordered list — the thief must get the
   oldest ceil(n/2) in arrival order, the victim must keep the newest
   floor(n/2) in LIFO order. *)
let prop_runqueue_steal_half_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"steal-half matches the list model" ~count:100
       QCheck.(int_bound 40)
       (fun n ->
         let victim = Runqueue.create () and thief = Runqueue.create () in
         let arrival = List.init n (fun i -> Printf.sprintf "m%d" i) in
         List.iter (fun name -> Runqueue.push_head victim (mk_task name)) arrival;
         let moved = Runqueue.steal_half ~from:victim ~into:thief in
         let want = (n + 1) / 2 in
         let expect_thief = List.filteri (fun i _ -> i < want) arrival in
         let expect_victim =
           List.rev (List.filteri (fun i _ -> i >= want) arrival)
         in
         moved = want
         && rq_names thief = expect_thief
         && rq_names victim = expect_victim
         && Runqueue.length victim + Runqueue.length thief = n))

let prop_runqueue_fifo_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"runqueue preserves FIFO order" ~count:100
       QCheck.(small_list small_int)
       (fun xs ->
         let q = Runqueue.create () in
         let tasks = List.map (fun x -> (x, mk_task (string_of_int x))) xs in
         List.iter (fun (_, t) -> Runqueue.push_tail q t) tasks;
         let rec drain acc =
           match Runqueue.pop_head q with
           | Some t -> drain (t.Task.name :: acc)
           | None -> List.rev acc
         in
         drain [] = List.map (fun (_, t) -> t.Task.name) tasks))

(* The links are intrusive, so a task sits in at most one queue: pushing
   it into a second queue is rejected like a double insert, and removing
   it through the wrong queue is a no-op on both. *)
let test_runqueue_one_queue_per_task () =
  let q1 = Runqueue.create () and q2 = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  List.iter (Runqueue.push_tail q1) [ a; b ];
  Runqueue.push_tail q2 c;
  List.iter
    (fun (what, push) ->
      check Alcotest.bool
        (what ^ " of a task queued elsewhere raises")
        true
        (try
           push q2 b;
           false
         with Invalid_argument _ -> true))
    [ ("push_tail", Runqueue.push_tail); ("push_head", Runqueue.push_head) ];
  check Alcotest.bool "remove via the wrong queue" false (Runqueue.remove q2 a);
  check Alcotest.bool "remove an unqueued task" false
    (Runqueue.remove q1 (mk_task "d"));
  check (Alcotest.list Alcotest.string) "q1 intact" [ "a"; "b" ] (rq_names q1);
  check (Alcotest.list Alcotest.string) "q2 intact" [ "c" ] (rq_names q2);
  check Alcotest.int "q1 length" 2 (Runqueue.length q1);
  check Alcotest.int "q2 length" 1 (Runqueue.length q2);
  (* once out of q1, the task may enter q2 *)
  check Alcotest.bool "remove b from q1" true (Runqueue.remove q1 b);
  Runqueue.push_head q2 b;
  check (Alcotest.list Alcotest.string) "b moved" [ "b"; "c" ] (rq_names q2);
  check Alcotest.int "steal a" 1 (Runqueue.steal_half ~from:q1 ~into:q2);
  check (Alcotest.list Alcotest.string) "a stolen to the tail" [ "b"; "c"; "a" ]
    (rq_names q2);
  check Alcotest.bool "q1 empty" true (Runqueue.is_empty q1)

(* Model test over random operation sequences on two queues sharing a pool
   of six tasks: every operation's result, each queue's order (through
   [to_list] and [iter]) and [length] must match two plain lists, and a
   push of a task already in either queue must raise and change nothing. *)
type rq_op =
  | Push_head of int * int
  | Push_tail of int * int
  | Pop_head of int
  | Pop_tail of int
  | Remove of int * int
  | Steal of int  (* from queue i into the other *)

let rq_op_gen =
  let open QCheck.Gen in
  let q = int_bound 1 and k = int_bound 5 in
  frequency
    [
      (3, map2 (fun q k -> Push_head (q, k)) q k);
      (3, map2 (fun q k -> Push_tail (q, k)) q k);
      (2, map (fun q -> Pop_head q) q);
      (2, map (fun q -> Pop_tail q) q);
      (2, map2 (fun q k -> Remove (q, k)) q k);
      (1, map (fun q -> Steal q) q);
    ]

let rq_op_print = function
  | Push_head (q, k) -> Printf.sprintf "push_head q%d t%d" q k
  | Push_tail (q, k) -> Printf.sprintf "push_tail q%d t%d" q k
  | Pop_head q -> Printf.sprintf "pop_head q%d" q
  | Pop_tail q -> Printf.sprintf "pop_tail q%d" q
  | Remove (q, k) -> Printf.sprintf "remove q%d t%d" q k
  | Steal q -> Printf.sprintf "steal_half q%d -> q%d" q (1 - q)

let prop_runqueue_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"runqueue ops match the list model" ~count:300
       QCheck.(
         make ~print:(Print.list rq_op_print) Gen.(list_size (int_bound 60) rq_op_gen))
       (fun ops ->
         let tasks = Array.init 6 (fun i -> mk_task (Printf.sprintf "t%d" i)) in
         let qs = [| Runqueue.create (); Runqueue.create () |] in
         let model = [| []; [] |] in
         let name (t : Task.t) = t.Task.name in
         let queued k = List.exists (List.mem k) (Array.to_list model) in
         let last l = List.nth l (List.length l - 1) in
         let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
         let popped got want =
           Option.map name got = Option.map (fun k -> name tasks.(k)) want
         in
         let step op =
           match op with
           | Push_head (q, k) | Push_tail (q, k) ->
               let push =
                 match op with Push_head _ -> Runqueue.push_head | _ -> Runqueue.push_tail
               in
               let raised =
                 try
                   push qs.(q) tasks.(k);
                   false
                 with Invalid_argument _ -> true
               in
               if queued k then raised
               else begin
                 model.(q) <-
                   (match op with
                   | Push_head _ -> k :: model.(q)
                   | _ -> model.(q) @ [ k ]);
                 not raised
               end
           | Pop_head q -> (
               let got = Runqueue.pop_head qs.(q) in
               match model.(q) with
               | [] -> got = None
               | k :: rest ->
                   model.(q) <- rest;
                   popped got (Some k))
           | Pop_tail q -> (
               let got = Runqueue.pop_tail qs.(q) in
               match model.(q) with
               | [] -> got = None
               | l ->
                   model.(q) <- drop_last l;
                   popped got (Some (last l)))
           | Remove (q, k) ->
               let was = List.mem k model.(q) in
               model.(q) <- List.filter (fun j -> j <> k) model.(q);
               Runqueue.remove qs.(q) tasks.(k) = was
           | Steal q ->
               let into = 1 - q in
               let want = (List.length model.(q) + 1) / 2 in
               for _ = 1 to want do
                 let k = last model.(q) in
                 model.(q) <- drop_last model.(q);
                 model.(into) <- model.(into) @ [ k ]
               done;
               Runqueue.steal_half ~from:qs.(q) ~into:qs.(into) = want
         in
         let agrees q =
           let expect = List.map (fun k -> name tasks.(k)) model.(q) in
           let seen = ref [] in
           Runqueue.iter (fun t -> seen := name t :: !seen) qs.(q);
           rq_names qs.(q) = expect
           && List.rev !seen = expect
           && Runqueue.length qs.(q) = List.length expect
           && Runqueue.is_empty qs.(q) = (expect = [])
           && Option.map name (Runqueue.peek_head qs.(q))
              = (match expect with [] -> None | h :: _ -> Some h)
         in
         List.for_all (fun op -> step op && agrees 0 && agrees 1) ops))

(* ---- a trivial FIFO policy for runtime tests ---- *)

let fifo_ctor : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  {
    Sched_ops.policy_name = "test-fifo";
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> Runqueue.push_tail q task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        Runqueue.push_tail q task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick = (fun ~cpu:_ _ -> false);
    sched_balance = Sched_ops.no_balance;
  }

(* RR policy with a given slice, local queue per core *)
let rr_ctor slice : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  {
    Sched_ops.policy_name = "test-rr";
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> Runqueue.push_tail q task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        Runqueue.push_tail q task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick =
      (fun ~cpu:_ task ->
        (not (Runqueue.is_empty q)) && view.now () - task.Task.run_start >= slice);
    sched_balance = Sched_ops.no_balance;
  }

let make_percpu ?(cores = 4) ?(timer_hz = 100_000) ?(preemption = true) ctor =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt = Percpu.create machine kmod ~cores:(List.init cores Fun.id) ~timer_hz ~preemption ctor in
  (engine, machine, rt)

(* ---- Percpu runtime ---- *)

let test_percpu_runs_task () =
  let engine, _, rt = make_percpu fifo_ctor in
  let app = Percpu.create_app rt ~name:"app" in
  let done_at = ref 0 in
  ignore
    (Percpu.spawn rt app ~name:"t" ~service:(Time.us 100)
       (Coro.Compute (Time.us 100, fun () -> done_at := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "ran" true (!done_at > 0);
  check Alcotest.int "completed count" 1 app.App.completed;
  check Alcotest.int "recorded" 1 (Summary.requests app.App.summary)

let test_percpu_parallelism () =
  let engine, _, rt = make_percpu ~cores:4 fifo_ctor in
  let app = Percpu.create_app rt ~name:"app" in
  let last = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Percpu.spawn rt app ~name:"t"
         (Coro.Compute (Time.ms 1, fun () -> last := Engine.now engine; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.bool "4 tasks on 4 cores in ~1ms" true (!last < Time.ms 2);
  check Alcotest.int "all done" 4 app.App.completed

let test_percpu_timer_ticks_happen () =
  let engine, _, rt = make_percpu ~cores:1 ~timer_hz:10_000 fifo_ctor in
  let app = Percpu.create_app rt ~name:"app" in
  ignore (Percpu.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 5)));
  Engine.run ~until:(Time.ms 5) engine;
  (* 10kHz for 5ms on a busy core: ~50 ticks *)
  check Alcotest.bool "ticks counted" true (Percpu.timer_ticks rt >= 40)

let test_percpu_no_preemption_mode () =
  let engine, _, rt = make_percpu ~cores:1 ~preemption:false fifo_ctor in
  let app = Percpu.create_app rt ~name:"app" in
  ignore (Percpu.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 5)));
  Engine.run ~until:(Time.ms 6) engine;
  check Alcotest.int "no ticks" 0 (Percpu.timer_ticks rt);
  check Alcotest.int "still completes" 1 app.App.completed

let test_percpu_rr_preemption () =
  (* One core, RR 50us slices: a long task and a short task interleave; the
     short one finishes long before the long one. *)
  let engine, _, rt = make_percpu ~cores:1 (rr_ctor (Time.us 50)) in
  let app = Percpu.create_app rt ~name:"app" in
  let long_done = ref 0 and short_done = ref 0 in
  ignore
    (Percpu.spawn rt app ~name:"long"
       (Coro.Compute (Time.ms 2, fun () -> long_done := Engine.now engine; Coro.Exit)));
  ignore
    (Percpu.spawn rt app ~name:"short"
       (Coro.Compute (Time.us 100, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "short escapes head-of-line blocking" true
    (!short_done > 0 && !short_done < Time.us 400);
  check Alcotest.bool "long still finishes" true (!long_done > Time.ms 2);
  check Alcotest.bool "preemptions happened" true (Percpu.preemptions rt > 0)

let test_percpu_fifo_hol_blocking () =
  (* Same workload without preemption: the short task waits for the long. *)
  let engine, _, rt = make_percpu ~cores:1 ~preemption:false fifo_ctor in
  let app = Percpu.create_app rt ~name:"app" in
  let short_done = ref 0 in
  ignore (Percpu.spawn rt app ~name:"long" (Coro.compute_then_exit (Time.ms 2)));
  ignore
    (Percpu.spawn rt app ~name:"short"
       (Coro.Compute (Time.us 100, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "short suffered HoL blocking" true (!short_done > Time.ms 2)

let test_percpu_block_wakeup_latency () =
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  let app = Percpu.create_app rt ~name:"app" in
  let woke = ref false in
  let sleeper =
    Percpu.spawn rt app ~name:"sleeper" (Coro.Block (fun () -> woke := true; Coro.Exit))
  in
  ignore (Engine.at engine (Time.us 100) (fun () -> Percpu.wakeup rt sleeper));
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "woken" true !woke;
  let h = Percpu.wakeup_hist rt in
  check Alcotest.int "one sample" 1 (Histogram.count h);
  (* user-space wakeup on an idle core: sub-microsecond *)
  check Alcotest.bool "sub-us wakeup" true (Histogram.max_value h < Time.us 1)

let test_percpu_multi_app_switching () =
  (* Two applications sharing one core: switching between their tasks must
     go through the kernel module and be counted. *)
  let engine, _, rt = make_percpu ~cores:1 (rr_ctor (Time.us 20)) in
  let app1 = Percpu.create_app rt ~name:"lc" in
  let app2 = Percpu.create_app rt ~name:"be" in
  ignore (Percpu.spawn rt app1 ~name:"a" (Coro.compute_then_exit (Time.us 200)));
  ignore (Percpu.spawn rt app2 ~name:"b" (Coro.compute_then_exit (Time.us 200)));
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.int "both done" 2 (app1.App.completed + app2.App.completed);
  check Alcotest.bool "app switches happened" true (Percpu.app_switches rt >= 2);
  check Alcotest.bool "both apps got CPU" true
    (app1.App.busy_ns > 0 && app2.App.busy_ns > 0)

let test_percpu_app_switch_costs_more () =
  (* The same interleaving within one app vs across apps: cross-app must
     take longer in total (1905ns vs 37ns per switch). *)
  let run two_apps =
    let engine, _, rt = make_percpu ~cores:1 (rr_ctor (Time.us 10)) in
    let app1 = Percpu.create_app rt ~name:"a1" in
    let app2 = if two_apps then Percpu.create_app rt ~name:"a2" else app1 in
    let finished = ref 0 in
    let spawn app name =
      ignore
        (Percpu.spawn rt app ~name
           (Coro.Compute (Time.us 300, fun () -> finished := Engine.now engine; Coro.Exit)))
    in
    spawn app1 "x";
    spawn app2 "y";
    Engine.run ~until:(Time.ms 5) engine;
    !finished
  in
  let same = run false and cross = run true in
  check Alcotest.bool "cross-app interleaving is slower" true (cross > same + Time.us 20)

let test_percpu_uipi_preemption () =
  (* Dispatcher-style preemption: send a user IPI to a busy core; its
     handler asks the policy, which preempts at quantum expiry. *)
  let engine, _, rt = make_percpu ~cores:2 ~preemption:false (rr_ctor (Time.us 10)) in
  let app = Percpu.create_app rt ~name:"app" in
  ignore (Percpu.spawn rt app ~name:"long" ~cpu:0 (Coro.compute_then_exit (Time.ms 1)));
  ignore (Percpu.spawn rt app ~name:"waiting" ~cpu:0 (Coro.compute_then_exit (Time.us 10)));
  (* preemption disabled -> no timer; send an explicit user IPI at 100us *)
  ignore
    (Engine.at engine (Time.us 100) (fun () ->
         Percpu.preempt_core rt ~src_core:1 ~dst_core:0));
  Engine.run ~until:(Time.ms 3) engine;
  check Alcotest.bool "IPI preempted the long task" true (Percpu.preemptions rt >= 1)

let test_percpu_requires_cores () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  check Alcotest.bool "no cores rejected" true
    (try
       ignore (Percpu.create machine kmod ~cores:[] fifo_ctor);
       false
     with Invalid_argument _ -> true)

let test_percpu_be_colocation () =
  (* BE soaks idle cores via the allocator; LC load evicts it. *)
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  let lc = Percpu.create_app rt ~name:"lc" in
  let be = Percpu.create_app rt ~name:"batch" in
  Percpu.attach_be_app rt be ~chunk:(Time.us 20) ~workers:2;
  (* idle phase: BE owns both cores *)
  Engine.run ~until:(Time.ms 2) engine;
  let idle_be = be.App.busy_ns in
  check Alcotest.bool "BE soaks idle cores" true
    (float_of_int idle_be /. float_of_int (2 * Time.ms 2) > 0.9);
  (* loaded phase: 15us of LC work every 10us (75% of 2 cores) *)
  let done_ = ref 0 in
  for i = 0 to 999 do
    ignore
      (Engine.at engine (Time.ms 2 + (i * Time.us 10)) (fun () ->
           ignore
             (Percpu.spawn rt lc ~name:"req" ~service:(Time.us 15)
                (Coro.Compute (Time.us 15, fun () -> incr done_; Coro.Exit)))))
  done;
  Engine.run ~until:(Time.ms 16) engine;
  check Alcotest.int "all LC served despite BE" 1000 !done_;
  check Alcotest.bool "BE preempted for LC" true (Percpu.be_preemptions rt > 0);
  match Percpu.allocator rt with
  | None -> Alcotest.fail "allocator not started by attach_be_app"
  | Some alloc ->
      check Alcotest.bool "allocator moved cores" true
        (Skyloft_alloc.Allocator.reclaims alloc > 0
        || Skyloft_alloc.Allocator.yields alloc > 0);
      check Alcotest.bool "switch costs charged" true
        (Skyloft_alloc.Allocator.charged_ns alloc > 0)

let test_percpu_be_guaranteed_cores () =
  (* A guaranteed BE core survives saturating LC load. *)
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  let lc = Percpu.create_app rt ~name:"lc" in
  let be = Percpu.create_app rt ~name:"batch" in
  let alloc_cfg =
    { (Skyloft_alloc.Allocator.default_config ()) with
      Skyloft_alloc.Allocator.be_guaranteed = 1 }
  in
  Percpu.attach_be_app rt ~alloc:alloc_cfg be ~chunk:(Time.us 20) ~workers:2;
  (* oversubscribe: 30us of LC work every 10us *)
  for i = 0 to 999 do
    ignore
      (Engine.at engine (i * Time.us 10) (fun () ->
           ignore
             (Percpu.spawn rt lc ~name:"req" ~service:(Time.us 30)
                (Coro.compute_then_exit (Time.us 30)))))
  done;
  Engine.run ~until:(Time.ms 10) engine;
  let total = 2 * Time.ms 10 in
  let be_share = App.cpu_share be ~total_ns:total in
  (* one of two cores guaranteed -> BE keeps ~half the machine *)
  check Alcotest.bool "guaranteed core kept under saturation" true (be_share > 0.4);
  match Percpu.allocator rt with
  | None -> Alcotest.fail "allocator missing"
  | Some alloc ->
      check Alcotest.int "grant never below guarantee" 1
        (Skyloft_alloc.Allocator.granted alloc ~app:be.App.id)

(* ---- Centralized runtime ---- *)

let make_centralized ?(workers = 4) ?(quantum = Time.us 30) ?mechanism ?alloc
    ?immediate () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt =
    Centralized.create machine kmod ~dispatcher_core:0
      ~worker_cores:(List.init workers (fun i -> i + 1))
      ~quantum ?mechanism ?alloc ?immediate
      (fun view ->
        ignore view;
        fifo_ctor view)
  in
  (engine, machine, rt)

let test_centralized_basic () =
  let engine, _, rt = make_centralized () in
  let app = Centralized.create_app rt ~name:"lc" in
  let done_ = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Centralized.submit rt app ~name:"req" ~service:(Time.us 10)
         (Coro.Compute (Time.us 10, fun () -> incr done_; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "all requests served" 8 !done_;
  check Alcotest.int "dispatches counted" 8 (Centralized.dispatches rt)

let test_centralized_quantum_preemption () =
  (* 1 worker: a 1ms request then a 10us request.  With a 30us quantum the
     short request must NOT wait the full 1ms. *)
  let engine, _, rt = make_centralized ~workers:1 ~quantum:(Time.us 30) () in
  let app = Centralized.create_app rt ~name:"lc" in
  let short_done = ref 0 in
  ignore
    (Centralized.submit rt app ~name:"long" ~service:(Time.ms 1)
       (Coro.compute_then_exit (Time.ms 1)));
  ignore
    (Centralized.submit rt app ~name:"short" ~service:(Time.us 10)
       (Coro.Compute (Time.us 10, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "preempted" true (Centralized.preemptions rt >= 1);
  check Alcotest.bool "short finished way before 1ms" true
    (!short_done > 0 && !short_done < Time.us 200)

let test_centralized_no_quantum_hol () =
  let engine, _, rt = make_centralized ~workers:1 ~quantum:0 () in
  let app = Centralized.create_app rt ~name:"lc" in
  let short_done = ref 0 in
  ignore
    (Centralized.submit rt app ~name:"long" ~service:(Time.ms 1)
       (Coro.compute_then_exit (Time.ms 1)));
  ignore
    (Centralized.submit rt app ~name:"short" ~service:(Time.us 10)
       (Coro.Compute (Time.us 10, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "no preemption" 0 (Centralized.preemptions rt);
  check Alcotest.bool "short suffered HoL" true (!short_done >= Time.ms 1)

let test_centralized_be_uses_idle_cores () =
  let engine, _, rt = make_centralized ~workers:2 () in
  let _lc = Centralized.create_app rt ~name:"lc" in
  let be = Centralized.create_app rt ~name:"batch" in
  Centralized.attach_be_app rt be ~chunk:(Time.us 100) ~workers:2;
  Engine.run ~until:(Time.ms 10) engine;
  (* With no LC load at all, BE gets ~100% of both workers. *)
  let share = App.cpu_share be ~total_ns:(2 * Time.ms 10) in
  check Alcotest.bool "BE share near 1.0 when idle" true (share > 0.9)

let test_centralized_be_reclaimed_under_load () =
  (* default alloc config: Static policy at a 5us interval *)
  let engine, _, rt = make_centralized ~workers:2 () in
  let lc = Centralized.create_app rt ~name:"lc" in
  let be = Centralized.create_app rt ~name:"batch" in
  Centralized.attach_be_app rt be ~chunk:(Time.us 100) ~workers:2;
  (* Heavy LC load: 15us of work every 10us = 75% of the 2 workers *)
  let rec gen i =
    if i < 2000 then
      ignore
        (Engine.at engine (i * Time.us 10) (fun () ->
             ignore
               (Centralized.submit rt lc ~name:"req" ~service:(Time.us 15)
                  (Coro.compute_then_exit (Time.us 15)));
             gen (i + 1)))
  in
  gen 0;
  (* arrivals span 20ms; leave drain time before measuring *)
  Engine.run ~until:(Time.ms 25) engine;
  let lc_share = App.cpu_share lc ~total_ns:(2 * Time.ms 25) in
  let be_share = App.cpu_share be ~total_ns:(2 * Time.ms 25) in
  check Alcotest.bool "BE cores reclaimed" true (Centralized.be_preemptions rt > 0);
  (* LC demands 2000 x 15us over 50ms of core time = 0.6; it must get all
     of it, and BE must soak most of the leftover without starving LC. *)
  check Alcotest.bool "LC gets its full demand" true (lc_share >= 0.58);
  check Alcotest.bool "BE soaks idle capacity" true
    (be_share > 0.15 && lc_share > be_share);
  check Alcotest.int "all LC served" 2000 lc.App.completed;
  match Centralized.allocator rt with
  | None -> Alcotest.fail "allocator not started by attach_be_app"
  | Some alloc ->
      check Alcotest.bool "allocator reclaimed cores" true
        (Skyloft_alloc.Allocator.reclaims alloc > 0);
      (* every core moved was charged the §5.4 inter-app switch cost *)
      let moves =
        Skyloft_alloc.Allocator.grants alloc + Skyloft_alloc.Allocator.reclaims alloc
        + Skyloft_alloc.Allocator.yields alloc
      in
      check Alcotest.bool "switch costs charged for moves" true
        (moves > 0
        && Skyloft_alloc.Allocator.charged_ns alloc
           >= Skyloft_hw.Costs.app_switch_ns)

let test_centralized_dispatcher_serializes () =
  (* With an expensive dispatcher (ghOSt-like), throughput is capped by
     dispatch cost: 100 requests x 2us dispatch >= 200us of dispatcher
     time even though 4 workers could run the 1us requests faster. *)
  let mech = { Centralized.ghost_mechanism with dispatch_cost = Time.us 2 } in
  let engine, _, rt = make_centralized ~workers:4 ~mechanism:mech () in
  let app = Centralized.create_app rt ~name:"lc" in
  let last_done = ref 0 in
  for _ = 1 to 100 do
    ignore
      (Centralized.submit rt app ~name:"req" ~service:1_000
         (Coro.Compute (1_000, fun () -> last_done := Engine.now engine; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "dispatcher-bound completion time" true (!last_done >= Time.us 200)

(* Both per-CPU runtimes reject a core they do not manage with an error
   naming the runtime and the core, instead of a bare [Not_found] (or, for
   a pinned spawn under a policy that never looks the core up, silent
   acceptance). *)
let test_percpu_unmanaged_core () =
  let runtimes () =
    let engine = Engine.create () in
    let machine =
      Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8)
    in
    let pc =
      Percpu.create machine (Kmod.create machine) ~cores:[ 0; 1 ]
        (Skyloft_policies.Fifo.create ())
    in
    let ws =
      Skyloft.Worksteal.create machine (Kmod.create machine) ~cores:[ 2; 3 ] ()
    in
    [ ("Percpu", pc, 5); ("Worksteal", Skyloft.Worksteal.percpu ws, 1) ]
  in
  List.iter
    (fun (name, rt, core) ->
      let app = Percpu.create_app rt ~name:"a" in
      let expect what f =
        Alcotest.check_raises
          (Printf.sprintf "%s: %s on core %d" name what core)
          (Invalid_argument
             (Printf.sprintf "%s: core %d is not managed by this runtime" name
                core))
          (fun () -> ignore (f ()))
      in
      expect "current" (fun () -> Percpu.current rt ~core);
      expect "fault_current" (fun () ->
          Percpu.fault_current rt ~core ~duration:(Time.us 1));
      expect "spawn ~cpu" (fun () ->
          Percpu.spawn rt app ~name:"t" ~cpu:core Coro.Exit))
    (runtimes ())

let test_centralized_invalid_config () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  check Alcotest.bool "dispatcher in worker set rejected" true
    (try
       ignore
         (Centralized.create machine kmod ~dispatcher_core:1 ~worker_cores:[ 1; 2 ]
            ~quantum:0 fifo_ctor);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "non-positive percore_hz rejected" true
    (try
       ignore
         (Centralized.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2 ]
            ~quantum:0 ~percore_hz:0 fifo_ctor);
       false
     with Invalid_argument _ -> true)

(* The same deep burst through both dispatcher kinds.  Four workers put
   the switch threshold at depth 8; 24 requests at once exceed it.  The
   hybrid hands the workers to per-core timers and takes them back once
   the queue drains; plain centralized has no mode switch and no timers,
   so it reports neither switches nor ticks. *)
let test_dispatcher_mode_switch () =
  let run kind =
    let engine = Engine.create () in
    let machine =
      Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:5)
    in
    let kmod = Kmod.create machine in
    let rt =
      Runtime.create kind machine kmod ~cores:[ 0; 1; 2; 3; 4 ]
        ~quantum:(Time.us 30) ()
    in
    let trace = Trace.create () in
    rt.Runtime.set_trace trace;
    let app = rt.Runtime.create_app ~name:"lc" in
    ignore
      (Engine.at engine (Time.us 10) (fun () ->
           for i = 1 to 24 do
             ignore
               (rt.Runtime.submit app ~name:(Printf.sprintf "burst-%d" i)
                  (Coro.compute_then_exit (Time.us 20)))
           done));
    Engine.run ~until:(Time.ms 1) engine;
    let modes =
      Trace.fold trace
        (fun acc ev ->
          match ev with
          | Trace.Instant { kind = Trace.Mode_switch; name; _ } -> name :: acc
          | _ -> acc)
        []
      |> List.rev
    in
    check Alcotest.int (Runtime.name kind ^ ": burst served") 24 app.App.completed;
    (rt.Runtime.counters (), modes)
  in
  let c, modes = run Runtime.Hybrid in
  check Alcotest.bool "hybrid: flips to percore first" true
    (match modes with "percore" :: _ -> true | _ -> false);
  check Alcotest.string "hybrid: back to central once drained" "central"
    (List.nth modes (List.length modes - 1));
  check Alcotest.int "hybrid: counter matches the trace instants"
    (List.length modes) c.Runtime.mode_switches;
  check Alcotest.bool "hybrid: percore ticks handled" true (c.Runtime.ticks > 0);
  let c, modes = run Runtime.Centralized in
  check Alcotest.int "centralized: no mode switches" 0 c.Runtime.mode_switches;
  check Alcotest.int "centralized: no mode instants" 0 (List.length modes);
  check Alcotest.int "centralized: no timer ticks" 0 c.Runtime.ticks

(* [pick_idle] over the runtime's view: the view is built once, so it
   must see units change state after construction.  Cores are listed out
   of id order to pin the "first in [view.cores] order" rule. *)
let test_pick_idle_view () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let seen = ref None in
  let rt =
    Percpu.create machine (Kmod.create machine) ~cores:[ 5; 2; 6 ]
      (fun view ->
        seen := Some view;
        fifo_ctor view)
  in
  let view = Option.get !seen in
  let pick () = Sched_ops.pick_idle view in
  let opt = Alcotest.(option int) in
  check Alcotest.(array int) "cores in unit order" [| 5; 2; 6 |] view.Sched_ops.cores;
  check opt "all idle: the first listed" (Some 5) (pick ());
  check Alcotest.bool "unmanaged core is never idle" false (view.Sched_ops.is_idle 3);
  check Alcotest.bool "out-of-range core is never idle" false
    (view.Sched_ops.is_idle 99 || view.Sched_ops.is_idle (-1));
  let app = Percpu.create_app rt ~name:"a" in
  let long cpu =
    ignore
      (Percpu.spawn rt app ~name:"long" ~cpu ~record:false
         (Coro.compute_then_exit (Time.us 100)))
  in
  long 5;
  Engine.run ~until:(Time.us 5) engine;
  check opt "core 5 busy: the next listed" (Some 2) (pick ());
  check Alcotest.int "wakeup placement agrees" 2
    (Sched_ops.wakeup_to_idle_or view ~fallback:(-7));
  (* the broker caps the last unit (core 6) *)
  Percpu.set_core_allowance rt 2;
  check Alcotest.bool "capped core is not idle" false (view.Sched_ops.is_idle 6);
  long 2;
  Engine.run ~until:(Time.us 10) engine;
  check opt "busy + capped: none" None (pick ());
  check Alcotest.int "fallback when none" (-7)
    (Sched_ops.wakeup_to_idle_or view ~fallback:(-7));
  Percpu.set_core_allowance rt 3;
  check opt "uncapped again" (Some 6) (pick ());
  Engine.run ~until:(Time.us 500) engine;
  check opt "tasks done: the first listed again" (Some 5) (pick ())

let suite =
  [
    Alcotest.test_case "runqueue: fifo + deque" `Quick test_runqueue_fifo;
    Alcotest.test_case "runqueue: remove" `Quick test_runqueue_remove;
    Alcotest.test_case "runqueue: double insert" `Quick test_runqueue_double_insert_rejected;
    Alcotest.test_case "runqueue: pop_tail drains" `Quick test_runqueue_pop_tail_drain;
    Alcotest.test_case "runqueue: remove head/tail/last" `Quick test_runqueue_remove_ends;
    Alcotest.test_case "runqueue: re-push after remove" `Quick
      test_runqueue_repush_after_remove;
    Alcotest.test_case "runqueue: steal-half" `Quick test_runqueue_steal_half;
    prop_runqueue_steal_half_model;
    prop_runqueue_fifo_order;
    Alcotest.test_case "runqueue: one queue per task" `Quick
      test_runqueue_one_queue_per_task;
    prop_runqueue_model;
    Alcotest.test_case "percpu: runs a task" `Quick test_percpu_runs_task;
    Alcotest.test_case "percpu: parallelism" `Quick test_percpu_parallelism;
    Alcotest.test_case "percpu: timer ticks" `Quick test_percpu_timer_ticks_happen;
    Alcotest.test_case "percpu: no-preemption mode" `Quick test_percpu_no_preemption_mode;
    Alcotest.test_case "percpu: RR preemption beats HoL" `Quick test_percpu_rr_preemption;
    Alcotest.test_case "percpu: FIFO suffers HoL" `Quick test_percpu_fifo_hol_blocking;
    Alcotest.test_case "percpu: block/wakeup" `Quick test_percpu_block_wakeup_latency;
    Alcotest.test_case "percpu: multi-app switching" `Quick test_percpu_multi_app_switching;
    Alcotest.test_case "percpu: app switch cost" `Quick test_percpu_app_switch_costs_more;
    Alcotest.test_case "percpu: user-IPI preemption" `Quick test_percpu_uipi_preemption;
    Alcotest.test_case "percpu: needs cores" `Quick test_percpu_requires_cores;
    Alcotest.test_case "percpu: BE co-location" `Quick test_percpu_be_colocation;
    Alcotest.test_case "percpu: BE guaranteed cores" `Quick
      test_percpu_be_guaranteed_cores;
    Alcotest.test_case "centralized: basic" `Quick test_centralized_basic;
    Alcotest.test_case "centralized: quantum preemption" `Quick
      test_centralized_quantum_preemption;
    Alcotest.test_case "centralized: HoL without quantum" `Quick
      test_centralized_no_quantum_hol;
    Alcotest.test_case "centralized: BE gets idle cores" `Quick
      test_centralized_be_uses_idle_cores;
    Alcotest.test_case "centralized: BE reclaimed under load" `Quick
      test_centralized_be_reclaimed_under_load;
    Alcotest.test_case "centralized: dispatcher serializes" `Quick
      test_centralized_dispatcher_serializes;
    Alcotest.test_case "centralized: invalid config" `Quick test_centralized_invalid_config;
    Alcotest.test_case "dispatcher kinds: mode switch on hybrid only" `Quick
      test_dispatcher_mode_switch;
    Alcotest.test_case "percpu+worksteal: unmanaged core rejected" `Quick
      test_percpu_unmanaged_core;
    Alcotest.test_case "pick_idle: first idle in view order, live" `Quick
      test_pick_idle_view;
  ]
