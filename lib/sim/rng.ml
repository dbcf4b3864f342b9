(* The four xoshiro256** state words live in a 32-byte buffer read and
   written with the unboxed 64-bit accessors: mutable [int64] record fields
   would box a fresh int64 on every write, four per draw. *)
type t = Bytes.t

(* splitmix64, used to expand the seed into xoshiro state (reference
   initialization recommended by the xoshiro authors). *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 state)
  done;
  t

let[@inline always] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step, inlined into every draw so the state words and
   the result stay in registers. *)
let[@inline always] step t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_ne t 8 (logxor s1 s2);
  Bytes.set_int64_ne t 0 (logxor s0 s3);
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let bits64 t = step t

let split t =
  (* Derive a child seed from the parent stream; the child is then expanded
     through splitmix64, which decorrelates it from the parent. *)
  let seed = Int64.to_int (step t) in
  create ~seed

let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (step t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let uniform t =
  (* 53 random bits into [0, 1), the standard double construction. *)
  let x = Int64.shift_right_logical (step t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

(* [uniform t < p] from the same single step, compared here so the float
   never leaves the function boxed. *)
let bernoulli t p =
  let x = Int64.shift_right_logical (step t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0) < p

let float t bound = uniform t *. bound
let bool t = Int64.logand (step t) 1L = 1L

let exponential t ~mean =
  let u = uniform t in
  (* log of 0 would be -inf; uniform is in [0,1) so use 1-u in (0,1]. *)
  -.mean *. log (1.0 -. u)
