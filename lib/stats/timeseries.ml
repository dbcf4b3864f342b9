module Time = Skyloft_sim.Time

type t = {
  capacity : int;
  mutable times : Time.t array;
  mutable values : int array;
  mutable head : int;  (* next write position *)
  mutable count : int;
  mutable dropped : int;
  (* Accounting for the truncated prefix: the step function over samples
     already evicted from the ring.  [trunc_span] is the virtual time the
     evicted samples covered, [trunc_weighted] their value*dt integral —
     enough for [integrate]/[mean] to stay exact over the full history
     without retaining the samples themselves. *)
  mutable trunc_span : Time.t;
  mutable trunc_weighted : float;
}

(* The arrays start at [initial_slots] and double up to [capacity] as
   samples arrive, so a short or unused series costs a few KB instead of
   the full ring.  They reach [capacity] before the ring first wraps, so
   the ring arithmetic only ever sees full arrays. *)
let initial_slots = 1024

let create ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  let slots = min capacity initial_slots in
  {
    capacity;
    times = Array.make slots 0;
    values = Array.make slots 0;
    head = 0;
    count = 0;
    dropped = 0;
    trunc_span = 0;
    trunc_weighted = 0.0;
  }

let grow t =
  let slots = min t.capacity (2 * Array.length t.times) in
  let times = Array.make slots 0 and values = Array.make slots 0 in
  Array.blit t.times 0 times 0 t.count;
  Array.blit t.values 0 values 0 t.count;
  t.times <- times;
  t.values <- values

let nth t i =
  (* i-th retained sample, oldest first *)
  let start = if t.count = t.capacity then t.head else 0 in
  let j = (start + i) mod t.capacity in
  (t.times.(j), t.values.(j))

let last t = if t.count = 0 then None else Some (nth t (t.count - 1))

let record t ~at v =
  (match last t with
  | Some (prev_at, _) when at < prev_at ->
      invalid_arg "Timeseries.record: time went backwards"
  | _ -> ());
  match last t with
  | Some (_, prev_v) when prev_v = v -> ()
  | _ ->
      if t.count = t.capacity then begin
        (* Evicting the oldest sample: fold the interval it covered — up
           to the next retained sample (or the incoming one at capacity
           1) — into the truncated-prefix accumulators before the slot is
           overwritten. *)
        let t0 = t.times.(t.head) and v0 = t.values.(t.head) in
        let t1 = if t.capacity > 1 then t.times.((t.head + 1) mod t.capacity) else at in
        if t1 > t0 then begin
          t.trunc_span <- t.trunc_span + (t1 - t0);
          t.trunc_weighted <-
            t.trunc_weighted +. (float_of_int (t1 - t0) *. float_of_int v0)
        end;
        t.dropped <- t.dropped + 1
      end
      else begin
        if t.count = Array.length t.times then grow t;
        t.count <- t.count + 1
      end;
      t.times.(t.head) <- at;
      t.values.(t.head) <- v;
      t.head <- (t.head + 1) mod t.capacity

let length t = t.count
let dropped t = t.dropped
let truncated_span t = t.trunc_span

let to_list t =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    acc := nth t i :: !acc
  done;
  !acc

let value_at t at =
  let found = ref None in
  (try
     for i = t.count - 1 downto 0 do
       let time, v = nth t i in
       if time <= at then begin
         found := Some v;
         raise Exit
       end
     done
   with Exit -> ());
  !found

(* Shared step-function integration: (sum of value * dt, covered span). *)
let weighted_span t ~until =
  let weighted = ref 0.0 and span = ref 0.0 in
  for i = 0 to t.count - 1 do
    let start, v = nth t i in
    let stop = if i = t.count - 1 then max until start else fst (nth t (i + 1)) in
    let stop = min stop (max until start) in
    if stop > start then begin
      let w = float_of_int (stop - start) in
      weighted := !weighted +. (w *. float_of_int v);
      span := !span +. w
    end
  done;
  (!weighted, !span)

let integrate t ~until =
  let weighted, _ = weighted_span t ~until in
  t.trunc_weighted +. weighted

let mean t ~until =
  if t.count = 0 then 0.0
  else begin
    let weighted, span = weighted_span t ~until in
    let weighted = t.trunc_weighted +. weighted
    and span = float_of_int t.trunc_span +. span in
    if span = 0.0 then float_of_int (snd (nth t (t.count - 1)))
    else weighted /. span
  end

let fold_values f init t =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    acc := f !acc (snd (nth t i))
  done;
  !acc

let min_value t = if t.count = 0 then 0 else fold_values min max_int t
let max_value t = if t.count = 0 then 0 else fold_values max min_int t
