module Time = Skyloft_sim.Time

type view = { cores : int array; is_idle : int -> bool; now : unit -> Time.t }
type reason = Enq_new | Enq_preempted | Enq_woken | Enq_yielded

type instance = {
  policy_name : string;
  task_init : Task.t -> unit;
  task_terminate : Task.t -> unit;
  task_enqueue : cpu:int -> reason:reason -> Task.t -> unit;
  task_dequeue : cpu:int -> Task.t option;
  task_block : cpu:int -> Task.t -> unit;
  task_wakeup : waker_cpu:int -> Task.t -> int;
  sched_timer_tick : cpu:int -> Task.t -> bool;
  sched_balance : cpu:int -> Task.t option;
}

type ctor = view -> instance

let no_balance ~cpu:_ = None

(* Inert policy: used as an initialisation placeholder and in tests. *)
let null_instance =
  {
    policy_name = "null";
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ _ -> ());
    task_dequeue = (fun ~cpu:_ -> None);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup = (fun ~waker_cpu _ -> waker_cpu);
    sched_timer_tick = (fun ~cpu:_ _ -> false);
    sched_balance = no_balance;
  }

type probe = { queued : unit -> int; oldest_wait : unit -> Time.t }

(* Enqueue stamps in arrival order: a growable ring of unboxed ints, so
   an entry is one array store and allocates nothing.  The capacity stays
   a power of two (16, doubled when full), so an index wraps with a
   mask. *)
type ring = { mutable buf : int array; mutable first : int; mutable len : int }

let ring_push r x =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.first + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.first <- 0
  end;
  r.buf.((r.first + r.len) land (Array.length r.buf - 1)) <- x;
  r.len <- r.len + 1

let ring_drop r =
  if r.len > 0 then begin
    r.first <- (r.first + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1
  end

(* Queue length and oldest-pending-task age are not part of the Table 2
   interface, so the runtimes measure them by wrapping the policy's queue
   operations.  Enqueue-order timestamps approximate the oldest pending
   task exactly for FIFO policies and conservatively otherwise. *)
let instrument ~now ?on_change (p : instance) =
  let count = ref 0 in
  let stamps = { buf = Array.make 16 0; first = 0; len = 0 } in
  let notify () = match on_change with Some f -> f !count | None -> () in
  let entered () =
    incr count;
    ring_push stamps (now ());
    notify ()
  in
  let left = function
    | None -> None
    | some ->
        if !count > 0 then decr count;
        ring_drop stamps;
        notify ();
        some
  in
  let wrapped =
    {
      p with
      task_enqueue =
        (fun ~cpu ~reason task ->
          entered ();
          p.task_enqueue ~cpu ~reason task);
      task_dequeue = (fun ~cpu -> left (p.task_dequeue ~cpu));
      task_wakeup =
        (fun ~waker_cpu task ->
          (* policies enqueue woken tasks internally, bypassing
             [task_enqueue] *)
          entered ();
          p.task_wakeup ~waker_cpu task);
      sched_balance = (fun ~cpu -> left (p.sched_balance ~cpu));
    }
  in
  let probe =
    {
      queued = (fun () -> !count);
      oldest_wait =
        (fun () ->
          if stamps.len = 0 then 0
          else max 0 (now () - stamps.buf.(stamps.first)));
    }
  in
  (wrapped, probe)

(* First idle core in [view.cores] order from position [i], -1 if none:
   a plain loop, so a search allocates nothing. *)
let rec idle_from view i =
  if i >= Array.length view.cores then -1
  else
    let core = Array.unsafe_get view.cores i in
    if view.is_idle core then core else idle_from view (i + 1)

let first_idle view = idle_from view 0

let pick_idle view =
  match first_idle view with -1 -> None | core -> Some core

let wakeup_to_idle_or view ~fallback =
  match first_idle view with -1 -> fallback | core -> core
