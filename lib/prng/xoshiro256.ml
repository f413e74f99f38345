(* The four 64-bit state words live in a 32-byte buffer, read and
   written with unboxed primitives. Four [mutable int64] record fields
   would box a fresh int64 on every store (without flambda ocamlopt
   cannot keep them unboxed across the update), about 21 words per
   draw. With the buffer, and [next] and [next_float] inlined into
   their callers, a draw allocates nothing unless a caller boxes the
   result. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  of_words s0 s1 s2 s3

(* The first four SplitMix64 outputs from [seed]: the k-th is
   [mix (seed + k * golden_gamma)]. Computed directly, the words stay
   unboxed. *)
let create seed =
  let gamma = Splitmix64.golden_gamma in
  let s0 = Splitmix64.mix (Int64.add seed gamma) in
  let s1 = Splitmix64.mix (Int64.add seed (Int64.mul 2L gamma)) in
  let s2 = Splitmix64.mix (Int64.add seed (Int64.mul 3L gamma)) in
  let s3 = Splitmix64.mix (Int64.add seed (Int64.mul 4L gamma)) in
  (* SplitMix64 output is never all-zero across four consecutive draws for
     any seed in practice, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L s1 s2 s3
  else of_words s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let next_int_in t bound =
  if bound <= 0 then invalid_arg "Xoshiro256.next_int_in: bound must be positive";
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let candidate = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    if candidate < bound then candidate else draw ()
  in
  draw ()

let[@inline] next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let next_bool t = Int64.compare (next t) 0L < 0

(* Jump polynomial from the reference implementation: advances 2^128 steps. *)
let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc (8 * i) (Int64.logxor (get acc (8 * i)) (get t (8 * i)))
          done;
        ignore (next t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
