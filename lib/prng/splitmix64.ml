let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined so batched callers ([Coin.bernoulli_fill]) keep the Int64
   chain unboxed: an out-of-line call boxes its argument and result. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
