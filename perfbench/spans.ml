(* The benchmark's span recorder: one span per call into a layer (a
   constructor, a cell's [Engine.run], a [submit]/[spawn], a completion
   callback), with name, start, end, parent span and the id of the
   request it belongs to (-1 for none).  Spans are kept in flat int
   arrays while the run lasts and written out once at the end.  Times are
   the host's monotonic clock in ns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable stack : int array;  (* open spans, innermost last *)
  mutable depth : int;
}

(* [capacity] is a hint: the arrays double when it is exceeded. *)
let create ?(capacity = 1024) () =
  let cap = max 1 capacity in
  {
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    names = Hashtbl.create 64;
    labels = [||];
    stack = Array.make 64 0;
    depth = 0;
  }

(* Span names are interned once per call site, not per span. *)
let intern t label =
  match Hashtbl.find_opt t.names label with
  | Some id -> id
  | None ->
      let id = Array.length t.labels in
      Hashtbl.add t.names label id;
      t.labels <- Array.append t.labels [| label |];
      id

let grow a = Array.append a (Array.make (Array.length a) 0)

let enter t name ~req =
  if t.n = Array.length t.name then begin
    t.name <- grow t.name;
    t.start <- grow t.start;
    t.stop <- grow t.stop;
    t.parent <- grow t.parent;
    t.req <- grow t.req
  end;
  if t.depth = Array.length t.stack then t.stack <- grow t.stack;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- name;
  t.parent.(id) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.req.(id) <- req;
  t.stack.(t.depth) <- id;
  t.depth <- t.depth + 1;
  t.start.(id) <- now_ns ();
  id

let leave t id =
  t.stop.(id) <- now_ns ();
  t.depth <- t.depth - 1;
  assert (t.stack.(t.depth) = id)

let with_span t label f =
  let id = enter t (intern t label) ~req:(-1) in
  let v = f () in
  leave t id;
  v

(* Self time of every span: its duration minus the time its direct
   children cover.  Children always nest inside their parent. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

(* Span count and summed self time in ns over every span whose name
   satisfies [p]. *)
let self_where t p =
  let self = self_times t and keep = Array.map p t.labels in
  let count = ref 0 and sum = ref 0 in
  for i = 0 to t.n - 1 do
    if keep.(t.name.(i)) then begin
      incr count;
      sum := !sum + self.(i)
    end
  done;
  (!count, !sum)

let write t ~path =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,req\n";
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i t.labels.(t.name.(i))
      (t.start.(i) - t0) (t.stop.(i) - t0) t.parent.(i) t.req.(i)
  done;
  close_out oc
