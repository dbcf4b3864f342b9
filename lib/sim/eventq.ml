(* Structure-of-arrays binary min-heap.  The heap proper is a preallocated
   int Bigarray with three machine words per node — time, sequence number,
   slot index — so sifting moves unboxed ints with no write barrier.
   Payloads and per-event bookkeeping (generation, cancelled flag) live in a
   parallel slab addressed by slot index and recycled through a free stack,
   so [schedule]/[cancel]/[pop] allocate nothing in steady state.

   A handle is an int packing (generation lsl slot_bits) lor slot.  The
   slot's generation is bumped when the event leaves the heap, so a stale
   handle — one whose event already fired or was collected — fails the
   generation check and [cancel] is a no-op, preserving the old boxed
   handles' cancel-after-fire semantics without keeping them alive. *)

type handle = int

let null : handle = -1
let is_null (h : handle) = h < 0

(* 2^25 events in flight before slot indices run out (schedule raises past
   that); the remaining bits hold the generation, masked on wraparound. *)
let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl (Sys.int_size - 1 - slot_bits)) - 1

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type 'a t = {
  mutable heap : ba;  (* stride 3 per node: time, seq, slot *)
  mutable len : int;  (* live heap nodes; each owns exactly one slot *)
  mutable next_seq : int;
  mutable cancelled_in_heap : int;
  (* slot slab, all of capacity [cap]: *)
  mutable gens : ba;  (* slot -> current generation *)
  mutable dead : ba;  (* slot -> 1 iff cancelled while still heaped *)
  mutable payloads : Obj.t array;
  mutable free : ba;  (* stack of free slot indices *)
  mutable free_top : int;
  mutable cap : int;
  mutable last_time : Time.t;  (* time of the event [pop_exn] last returned *)
}

let unit_obj = Obj.repr ()

let ba_create n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* Eta-expanded at the concrete type so the access primitive is applied
   directly (and the wrapper inlined): a bare alias of [unsafe_get] is a
   closure over the generic kind-dispatching accessor, ~10x slower. *)
let[@inline] bget (a : ba) i = Bigarray.Array1.unsafe_get a i
let[@inline] bset (a : ba) i (v : int) = Bigarray.Array1.unsafe_set a i v

let create () =
  let cap = 16 in
  let free = ba_create cap in
  (* Stack top is the highest index, so seed it descending: slots are then
     handed out in ascending order, which keeps dumps readable. *)
  for i = 0 to cap - 1 do bset free i (cap - 1 - i) done;
  let gens = ba_create cap in
  Bigarray.Array1.fill gens 0;
  let dead = ba_create cap in
  Bigarray.Array1.fill dead 0;
  {
    heap = ba_create (3 * cap);
    len = 0;
    next_seq = 0;
    cancelled_in_heap = 0;
    gens;
    dead;
    payloads = Array.make cap unit_obj;
    free;
    free_top = cap;
    cap;
    last_time = -1;
  }

let grow t =
  let cap = t.cap in
  if cap > slot_mask lsr 1 then
    invalid_arg "Eventq.schedule: too many events in flight";
  let new_cap = cap * 2 in
  let heap = ba_create (3 * new_cap) in
  for i = 0 to (3 * t.len) - 1 do bset heap i (bget t.heap i) done;
  let gens = ba_create new_cap in
  let dead = ba_create new_cap in
  for i = 0 to cap - 1 do
    bset gens i (bget t.gens i);
    bset dead i (bget t.dead i)
  done;
  for i = cap to new_cap - 1 do
    bset gens i 0;
    bset dead i 0
  done;
  let payloads = Array.make new_cap unit_obj in
  Array.blit t.payloads 0 payloads 0 cap;
  (* grow only runs when every slot is live, so the free stack is empty:
     refill it with just the new slots, descending for ascending hand-out *)
  let free = ba_create new_cap in
  for i = 0 to new_cap - cap - 1 do bset free i (new_cap - 1 - i) done;
  t.heap <- heap;
  t.gens <- gens;
  t.dead <- dead;
  t.payloads <- payloads;
  t.free <- free;
  t.free_top <- new_cap - cap;
  t.cap <- new_cap

(* node [i] sorts before node [j]: earlier time, or same time and earlier
   sequence number — the FIFO-at-same-instant determinism contract *)
let node_lt t i j =
  let bi = 3 * i and bj = 3 * j in
  let ti = bget t.heap bi and tj = bget t.heap bj in
  ti < tj || (ti = tj && bget t.heap (bi + 1) < bget t.heap (bj + 1))

let swap_nodes t i j =
  let bi = 3 * i and bj = 3 * j in
  let t0 = bget t.heap bi and t1 = bget t.heap (bi + 1) and t2 = bget t.heap (bi + 2) in
  bset t.heap bi (bget t.heap bj);
  bset t.heap (bi + 1) (bget t.heap (bj + 1));
  bset t.heap (bi + 2) (bget t.heap (bj + 2));
  bset t.heap bj t0;
  bset t.heap (bj + 1) t1;
  bset t.heap (bj + 2) t2

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if node_lt t i parent then begin
      swap_nodes t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.len && node_lt t left !smallest then smallest := left;
  if right < t.len && node_lt t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap_nodes t i !smallest;
    sift_down t !smallest
  end

let schedule t ~at payload =
  if at < 0 then invalid_arg "Eventq.schedule: negative time";
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = bget t.free t.free_top in
  bset t.dead slot 0;
  Array.unsafe_set t.payloads slot (Obj.repr payload);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = t.len in
  t.len <- i + 1;
  let b = 3 * i in
  bset t.heap b at;
  bset t.heap (b + 1) seq;
  bset t.heap (b + 2) slot;
  sift_up t i;
  (bget t.gens slot lsl slot_bits) lor slot

(* A handle is valid while its slot's generation matches; anything else —
   negative, out of range, stale — refers to an event that already left the
   heap and must be ignored. *)
let live_slot t (h : handle) =
  if h < 0 then -1
  else
    let slot = h land slot_mask in
    if slot < t.cap && bget t.gens slot = h asr slot_bits then slot else -1

let cancel t (h : handle) =
  let slot = live_slot t h in
  if slot >= 0 && bget t.dead slot = 0 then begin
    bset t.dead slot 1;
    (* The entry stays heaped until it reaches the root; its payload is
       never run, so drop it now rather than keep it reachable. *)
    Array.unsafe_set t.payloads slot unit_obj;
    t.cancelled_in_heap <- t.cancelled_in_heap + 1;
    (* [size] must never go negative: every cancelled entry is still heaped *)
    assert (t.cancelled_in_heap <= t.len)
  end

let is_cancelled t (h : handle) =
  let slot = live_slot t h in
  slot >= 0 && bget t.dead slot = 1

(* Release the popped node's slot: bump the generation so outstanding
   handles go stale, drop the payload reference, recycle the index. *)
let free_slot t slot =
  bset t.gens slot ((bget t.gens slot + 1) land gen_mask);
  Array.unsafe_set t.payloads slot unit_obj;
  bset t.free t.free_top slot;
  t.free_top <- t.free_top + 1

(* Remove the heap root and free its slot; true iff it was cancelled. *)
let drop_top t =
  let slot = bget t.heap 2 in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let b = 3 * last in
    bset t.heap 0 (bget t.heap b);
    bset t.heap 1 (bget t.heap (b + 1));
    bset t.heap 2 (bget t.heap (b + 2));
    sift_down t 0
  end;
  let cancelled = bget t.dead slot = 1 in
  if cancelled then begin
    t.cancelled_in_heap <- t.cancelled_in_heap - 1;
    assert (t.cancelled_in_heap >= 0)
  end;
  free_slot t slot;
  cancelled

exception Empty

(* Zero-allocation pop for the engine's hot loop: the payload comes back
   bare and the event's timestamp is left in [last_time]. *)
let rec pop_exn : 'a. 'a t -> 'a =
 fun t ->
  if t.len = 0 then raise Empty
  else begin
    let time = bget t.heap 0 in
    let slot = bget t.heap 2 in
    let payload = Array.unsafe_get t.payloads slot in
    if drop_top t then pop_exn t
    else begin
      t.last_time <- time;
      (Obj.obj payload : 'a)
    end
  end

let last_time t = t.last_time

let pop t =
  if t.len = 0 then None
  else
    match pop_exn t with
    | payload -> Some (t.last_time, payload)
    | exception Empty -> None

(* Earliest live event's time, or -1 when none; cancelled entries at the
   root are collected on the way (lazy deletion). *)
let rec next_time t =
  if t.len = 0 then -1
  else if bget t.dead (bget t.heap 2) = 1 then begin
    ignore (drop_top t);
    next_time t
  end
  else bget t.heap 0

let peek_time t = match next_time t with -1 -> None | time -> Some time

(* Lazy cancellation: live entries = stored entries minus the cancelled
   ones still in the heap, both tracked incrementally.  O(1). *)
let size t = t.len - t.cancelled_in_heap
let is_empty t = size t = 0

let check_invariants t =
  if t.len < 0 || t.len > t.cap then failwith "Eventq: len out of range";
  if t.free_top <> t.cap - t.len then failwith "Eventq: slot/heap leak";
  if t.cancelled_in_heap < 0 then failwith "Eventq: negative cancelled count";
  if t.cancelled_in_heap > t.len then failwith "Eventq: cancelled > heaped";
  if size t < 0 then failwith "Eventq: negative size";
  let cancelled = ref 0 in
  for i = 0 to t.len - 1 do
    if bget t.dead (bget t.heap ((3 * i) + 2)) = 1 then incr cancelled;
    if i > 0 && node_lt t i ((i - 1) / 2) then failwith "Eventq: heap order"
  done;
  if !cancelled <> t.cancelled_in_heap then
    failwith "Eventq: cancelled count drifted"
