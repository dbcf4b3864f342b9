module Time = Skyloft_sim.Time
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** Work stealing, Shenango-style (§5.3), in cooperative and preemptive
    variants.

    Each core owns a deque: the owner pushes and pops at the head (locality)
    while idle cores steal from the tail of a victim scanned round-robin.
    Woken tasks land on the waking core's queue.  The preemptive variant is
    the paper's punchline for RocksDB: {e without modifying the policy}, the
    user-space timer tick preempts any request that has run longer than the
    quantum, breaking head-of-line blocking for 591 µs scans while 0.95 µs
    GETs wait (Figure 8b).  [quantum = None] is plain Shenango-style
    cooperative work stealing (used for Memcached, Figure 8a). *)

let create ?quantum () : Sched_ops.ctor =
 fun view ->
  let n = Array.length view.cores in
  (* Core id -> position in [view.cores] (-1 if unmanaged), and per-position
     queues and steal cursors: the dequeue and balance paths index arrays
     instead of allocating a [Hashtbl.find_opt] option per lookup. *)
  let pos = Array.make (1 + Array.fold_left max (-1) view.cores) (-1) in
  Array.iteri (fun i core -> pos.(core) <- i) view.cores;
  let pos_of cpu = if cpu >= 0 && cpu < Array.length pos then pos.(cpu) else -1 in
  let queues = Array.init n (fun _ -> Runqueue.create ()) in
  let q cpu =
    let i = pos_of cpu in
    if i < 0 then invalid_arg "work_stealing: unmanaged cpu" else queues.(i)
  in
  (* Per-thief steal cursor: the next scan resumes where the last successful
     steal left off, so repeated steals spread across victims round-robin
     instead of draining thief+1 first.  -1 until the first steal. *)
  let cursor = Array.make n (-1) in
  (* Rotation point for wakeups from unmanaged cores when nobody is idle. *)
  let wake_rr = ref 0 in
  {
    Sched_ops.policy_name =
      (match quantum with Some _ -> "work-stealing-preemptive" | None -> "work-stealing");
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        match reason with
        (* A preempted or yielded task goes to the tail so queued short
           work runs first... *)
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            Runqueue.push_tail (q cpu) task
        (* ...while the owner pushes fresh and woken tasks at the head
           (LIFO locality: the newest task's state is hottest in cache). *)
        | Sched_ops.Enq_new | Sched_ops.Enq_woken -> Runqueue.push_head (q cpu) task);
    task_dequeue = (fun ~cpu -> Runqueue.pop_head (q cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        let target =
          if pos_of waker_cpu >= 0 then waker_cpu
          else begin
            (* Unmanaged waker: prefer an idle core, else rotate the
               fallback so repeated wakeups do not hot-spot core 0. *)
            let fallback = view.cores.(!wake_rr mod n) in
            wake_rr := (!wake_rr + 1) mod n;
            Sched_ops.wakeup_to_idle_or view ~fallback
          end
        in
        Runqueue.push_head (q target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        match quantum with
        | None -> false
        | Some quantum ->
            (* Preempting with an empty local queue would only reschedule
               the same task; skip the churn. *)
            (not (Runqueue.is_empty (q cpu)))
            && view.now () - task.Task.run_start >= quantum);
    sched_balance =
      (fun ~cpu ->
        (* Round-robin victim scan resuming at the persisted cursor (first
           scan starts just after the thief), stopping at the first hit. *)
        let self = max 0 (pos_of cpu) in
        let start = if cursor.(self) >= 0 then cursor.(self) else (self + 1) mod n in
        let stolen = ref None in
        let k = ref 0 in
        while !stolen = None && !k < n do
          let idx = (start + !k) mod n in
          if idx <> self then begin
            stolen := Runqueue.pop_tail queues.(idx);
            if !stolen <> None then cursor.(self) <- (idx + 1) mod n
          end;
          incr k
        done;
        !stolen);
  }
