(* Intrusive doubly linked list threaded through the tasks themselves
   ([Task.rq_prev]/[rq_next], [Task.nil] as the end marker), with
   [Task.rq_owner] naming the queue a task sits in: a push or pop writes
   a few fields and allocates nothing, and membership is one pointer
   comparison. *)
type t = Task.runq

let nil = Task.nil
let create () = { Task.rq_head = nil; rq_tail = nil; rq_len = 0 }
let length (t : t) = t.rq_len
let is_empty (t : t) = t.rq_len = 0

let claim (t : t) (task : Task.t) =
  if task.Task.rq_owner != Task.unqueued then
    invalid_arg "Runqueue: task already queued";
  task.Task.rq_owner <- t;
  t.rq_len <- t.rq_len + 1

let push_tail (t : t) task =
  claim t task;
  let old = t.rq_tail in
  task.Task.rq_prev <- old;
  if old == nil then t.rq_head <- task else old.Task.rq_next <- task;
  t.rq_tail <- task

let push_head (t : t) task =
  claim t task;
  let old = t.rq_head in
  task.Task.rq_next <- old;
  if old == nil then t.rq_tail <- task else old.Task.rq_prev <- task;
  t.rq_head <- task

let unlink (t : t) (task : Task.t) =
  let prev = task.Task.rq_prev and next = task.Task.rq_next in
  if prev == nil then t.rq_head <- next else prev.Task.rq_next <- next;
  if next == nil then t.rq_tail <- prev else next.Task.rq_prev <- prev;
  task.Task.rq_prev <- nil;
  task.Task.rq_next <- nil;
  task.Task.rq_owner <- Task.unqueued;
  t.rq_len <- t.rq_len - 1

let pop_head (t : t) =
  let task = t.rq_head in
  if task == nil then None
  else begin
    unlink t task;
    Some task
  end

let pop_tail (t : t) =
  let task = t.rq_tail in
  if task == nil then None
  else begin
    unlink t task;
    Some task
  end

let pop_tail_n t n =
  let rec go n acc =
    if n <= 0 then List.rev acc
    else
      match pop_tail t with
      | None -> List.rev acc
      | Some task -> go (n - 1) (task :: acc)
  in
  go n []

let steal_half ~(from : t) ~(into : t) =
  (* Under owner-head LIFO the oldest tasks sit at the tail; moving them
     tail-first and appending at [into]'s tail keeps them oldest-first at
     [into]'s head, so the thief's pop_head runs them in arrival order. *)
  let want = (from.rq_len + 1) / 2 in
  for _ = 1 to want do
    let task = from.rq_tail in
    unlink from task;
    push_tail into task
  done;
  want

let peek_head (t : t) = if t.rq_head == nil then None else Some t.rq_head

let remove (t : t) (task : Task.t) =
  if task.Task.rq_owner == t then begin
    unlink t task;
    true
  end
  else false

let iter f (t : t) =
  let rec go (task : Task.t) =
    if task != nil then begin
      let next = task.Task.rq_next in
      f task;
      go next
    end
  in
  go t.rq_head

let to_list (t : t) =
  let rec go (task : Task.t) acc =
    if task == nil then acc else go task.Task.rq_prev (task :: acc)
  in
  go t.rq_tail []
