(** FIFO deque of tasks, the building block for policy runqueues.

    Supports head/tail insertion (preempted tasks often go back to the head
    or tail depending on the policy), O(1) push/pop at both ends, and
    removal of a specific task.  A doubly linked list so work-stealing
    policies can steal from the tail while the owner pops the head.

    The links are intrusive: they live in the task itself
    ([Task.rq_prev]/[rq_next], with [Task.rq_owner] naming the queue), so
    pushing, removing and stealing allocate nothing and membership is
    O(1).  The price is that a task sits in at most one queue at a time:
    pushing a task that is in any queue — this one or another — raises
    [Invalid_argument]. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool
val push_tail : t -> Task.t -> unit
(** Raises [Invalid_argument] if the task already sits in any queue. *)

val push_head : t -> Task.t -> unit
(** Raises [Invalid_argument] if the task already sits in any queue. *)

val pop_head : t -> Task.t option
val pop_tail : t -> Task.t option

val pop_tail_n : t -> int -> Task.t list
(** [pop_tail_n q n] pops up to [n] tasks from the tail, returned in pop
    order (tail-first — oldest-first when the owner pushes at the head). *)

val steal_half : from:t -> into:t -> int
(** Move the tail half of [from] (rounded up, so a single queued task is
    stealable) to the tail of [into], preserving tail-first order; returns
    the number moved.  This is the steal-half grab of a work-stealing
    deque: the thief takes the victim's oldest tasks in one operation and
    will then pop them oldest-first from its own head. *)

val peek_head : t -> Task.t option
val remove : t -> Task.t -> bool
(** [remove q task] takes [task] out of [q]; [false] (and nothing changes)
    if it was not there, including when it sits in another queue. *)

val iter : (Task.t -> unit) -> t -> unit
(** Head to tail.  [f] may remove the task it is given. *)

val to_list : t -> Task.t list
