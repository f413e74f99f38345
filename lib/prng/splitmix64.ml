type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined so batched callers ([Coin.bernoulli_fill]) keep the Int64
   chain unboxed: an out-of-line call boxes its argument and result. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }
let copy t = { state = t.state }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* Map a 64-bit output to [0, bound) by rejection on the top bits, which
   avoids modulo bias for all bounds representable as OCaml ints. *)
let next_int_in t bound =
  if bound <= 0 then invalid_arg "Splitmix64.next_int_in: bound must be positive";
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let candidate = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    if candidate < bound then candidate else draw ()
  in
  draw ()

let next_float t =
  (* Use the top 53 bits, the precision of a float mantissa. *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)
