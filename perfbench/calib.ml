(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed drifts by tens of
   percent within seconds (other tenants on the same cores and caches),
   and process CPU time does not hide that.  So every cell is bracketed
   by two short fixed loops whose work never changes, and the cell's
   host time is scaled by [reference_ns / measured], where [measured] is
   the mean of the loops' time just before and just after the cell.  The
   loops resemble the simulator's own work: one pops and pushes a binary
   heap while writing a table bigger than the private caches, the other
   allocates short-lived closures and records of which a fraction
   survives into the major heap.  Neither calls the library, so a change
   to the simulator moves the cell's time and not the calibration. *)

type node = { at : int; tag : int; next : node option }
type cell = { c_at : int; c_k : int; c_f : unit -> int }

(* Allocated on first use, so the peak RSS read before the first sample
   is the workload's own; off the OCaml heap, so that a major collection
   during a cell never scans it. *)
type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let table : table Lazy.t =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19) in
     Bigarray.Array1.fill t 0;
     t)

let lcg seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    !s

let heap_loop () =
  let heap = Array.make 256 0 and n = ref 0 in
  let push v =
    let i = ref !n in
    incr n;
    heap.(!i) <- v;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !n && heap.(l) < heap.(!m) then m := l;
      if l + 1 < !n && heap.(l + 1) < heap.(!m) then m := l + 1;
      if !m = !i then sifting := false
      else begin
        let t = heap.(!m) in
        heap.(!m) <- heap.(!i);
        heap.(!i) <- t;
        i := !m
      end
    done;
    top
  in
  let rand = lcg 12345 in
  for _ = 1 to 200 do
    push (rand () land 0xffff)
  done;
  let table = Lazy.force table in
  let chain = ref None and mask = Bigarray.Array1.dim table - 1 in
  for k = 1 to 20_000 do
    let t = pop () in
    push (t + 1 + (rand () land 0xfff));
    chain := Some { at = t; tag = k; next = (if k land 63 = 0 then None else !chain) };
    let j = rand () land mask in
    table.{j} <- table.{j} + t
  done;
  ignore (Sys.opaque_identity !chain)

(* The ring is garbage once the loop ends, so no major collection after
   the sample has to mark it. *)
let alloc_loop () =
  let table = Lazy.force table and ring = Array.make 32768 None in
  let rand = lcg 777 and acc = ref 0 and mask = Bigarray.Array1.dim table - 1 in
  for k = 1 to 15_000 do
    let r = rand () in
    let c = { c_at = r; c_k = k; c_f = (fun () -> r + k) } in
    let slot = r land (Array.length ring - 1) in
    (match ring.(slot) with Some o -> acc := !acc + o.c_f () + o.c_at + o.c_k | None -> ());
    ring.(slot) <- Some c;
    let j = (r lsr 3) land mask in
    table.{j} <- table.{j} + !acc
  done

(* Host ns of one run of both loops.  The caller collects the major heap
   before each cell (untimed) and at the end of each cell (timed, part of
   the cell), so the loops start on a clean heap and their garbage never
   reaches a timed region. *)
let sample () =
  let t0 = Sys.time () in
  heap_loop ();
  alloc_loop ();
  let t1 = Sys.time () in
  (t1 -. t0) *. 1e9

(* The first sample also touches the table for the first time; it is
   run once before anything is timed. *)
let warm_up () = ignore (sample ())

(* Roughly what [sample] takes on the 2-core x86-64 VM the benchmark was
   tuned on; scaled times read as host time there. *)
let reference_ns = 8.0e6
