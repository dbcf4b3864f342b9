module Time = Skyloft_sim.Time

type t = {
  sub : int;  (* sub-buckets per power-of-two range; power of two *)
  k : int;  (* log2 sub *)
  rows : int array array;
      (* one row of [sub] counts per power-of-two group, allocated the
         first time a value lands in the group ([absent] until then): a
         latency histogram touches a dozen of its 59 groups, and one that
         is never recorded — a daemon's, an idle tenant's — costs 60
         words instead of 30 KB *)
  mutable n : int;
  mutable min_v : int;
  mutable max_v : int;
}

let is_power_of_two x = x > 0 && x land (x - 1) = 0
let absent : int array = [||]

let create ?(sub_buckets = 64) () =
  if not (is_power_of_two sub_buckets) then
    invalid_arg "Histogram.create: sub_buckets must be a power of two";
  let k =
    let rec go k = if 1 lsl k = sub_buckets then k else go (k + 1) in
    go 0
  in
  (* Groups 1..(62-k+1) cover all positive OCaml ints; group 0 is the exact
     linear region [0, sub). *)
  let groups = 63 - k + 1 in
  {
    sub = sub_buckets;
    k;
    rows = Array.make (groups + 1) absent;
    n = 0;
    min_v = max_int;
    max_v = 0;
  }

let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index t v =
  if v < t.sub then v
  else begin
    let m = msb v in
    let group = m - t.k + 1 in
    let s = (v lsr (group - 1)) - t.sub in
    (group * t.sub) + s
  end

(* Inclusive upper bound of the values mapping to bucket [i]. *)
let bucket_upper t i =
  if i < t.sub then i
  else begin
    let group = i / t.sub and s = i mod t.sub in
    ((t.sub + s + 1) lsl (group - 1)) - 1
  end

let bucket_mid t i =
  if i < t.sub then float_of_int i
  else begin
    let group = i / t.sub and s = i mod t.sub in
    let lower = (t.sub + s) lsl (group - 1) in
    float_of_int (lower + bucket_upper t i) /. 2.0
  end

(* Add [n] to bucket [i], allocating its group's row on first use. *)
let add t i n =
  let g = i lsr t.k and s = i land (t.sub - 1) in
  let row = t.rows.(g) in
  let row =
    if row != absent then row
    else begin
      let row = Array.make t.sub 0 in
      t.rows.(g) <- row;
      row
    end
  in
  row.(s) <- row.(s) + n

let record_n t v ~n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    add t (index t v) n;
    t.n <- t.n + n;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v ~n:1
let count t = t.n
let is_empty t = t.n = 0
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = t.max_v

(* [f i c] for every bucket index [i] in increasing order whose count
   [c] is positive; groups never recorded into hold none. *)
let iter_counts t f =
  Array.iteri
    (fun g row ->
      Array.iteri (fun s c -> if c > 0 then f ((g * t.sub) + s) c) row)
    t.rows

let total t =
  let acc = ref 0.0 in
  iter_counts t (fun i c -> acc := !acc +. (float_of_int c *. bucket_mid t i));
  !acc

let mean t = if t.n = 0 then 0.0 else total t /. float_of_int t.n

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  if t.n = 0 then 0
  else begin
    let target =
      let exact = p /. 100.0 *. float_of_int t.n in
      max 1 (int_of_float (ceil exact))
    in
    let seen = ref 0 and result = ref t.max_v and found = ref false in
    (try
       iter_counts t (fun i c ->
           seen := !seen + c;
           if (not !found) && !seen >= target then begin
             result := min (bucket_upper t i) t.max_v;
             found := true;
             raise Exit
           end)
     with Exit -> ());
    !result
  end

let merge_into ~src ~dst =
  if src.sub <> dst.sub then invalid_arg "Histogram.merge_into: mismatched sub_buckets";
  iter_counts src (fun i c -> add dst i c);
  dst.n <- dst.n + src.n;
  if src.n > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let reset t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.rows;
  t.n <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let pp_summary ppf t =
  if t.n = 0 then Format.fprintf ppf "(empty)"
  else
    Format.fprintf ppf "n=%d p50=%a p90=%a p99=%a p99.9=%a max=%a" t.n Time.pp
      (percentile t 50.0) Time.pp (percentile t 90.0) Time.pp (percentile t 99.0) Time.pp
      (percentile t 99.9) Time.pp (max_value t)
