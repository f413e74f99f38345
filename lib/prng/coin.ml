let hash64 ~seed id =
  let z = Int64.add seed (Int64.mul Splitmix64.golden_gamma (Int64.of_int id)) in
  Splitmix64.mix (Splitmix64.mix z)

let uniform ~seed id =
  let bits = Int64.shift_right_logical (hash64 ~seed id) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let bernoulli ~seed ~p id = uniform ~seed id < p

(* [bernoulli_fill] is one sequential SplitMix64 sweep over consecutive
   ids, the generator for eagerly-filled world caches. [hash64]
   evaluates the finalizer at [z_id = seed + gamma * id]; walking ids in
   order replaces the per-call 64-bit multiply with one add per id. The
   bits are identical to calling [bernoulli] per id (property-tested).

   The fill compares integers: with [bits] the top 53 bits of the hash,
   [uniform] is bits / 2^53 and the coin is open iff bits < p·2^53. Both
   scalings by 2^53 are exact, and for an integer [bits] that is
   bits < ⌈p·2^53⌉. The threshold is clamped to [0, 2^53] first, so p >= 1
   opens every coin and p <= 0 (or NaN, where [u < p] is false) none. *)
let threshold p =
  if p >= 1.0 then 1 lsl 53
  else if p > 0.0 then int_of_float (Float.ceil (p *. 9007199254740992.0))
  else 0

(* 1 iff the coin at SplitMix64 state [z] is open: [bits - threshold] is
   negative exactly then, and [lsr 62] reads the sign of a 63-bit int. *)
let[@inline] coin ~threshold z =
  (Int64.to_int (Int64.shift_right_logical (Splitmix64.mix (Splitmix64.mix z)) 11)
  - threshold)
  lsr 62

let bernoulli_fill ~seed ~p bits ~count =
  if Bytes.length bits * 8 < count then
    invalid_arg "Coin.bernoulli_fill: bitset too small";
  let threshold = threshold p in
  let z = ref seed in
  for j = 0 to ((count + 7) lsr 3) - 1 do
    (* Up to eight coins gathered into one byte without a branch, then
       ORed into byte [j]; the last byte may be ragged. *)
    let left = count - 1 - (j lsl 3) in
    let last = if left < 7 then left else 7 in
    let byte = ref 0 in
    for k = 0 to last do
      byte := !byte lor (coin ~threshold !z lsl k);
      z := Int64.add !z Splitmix64.golden_gamma
    done;
    Bytes.unsafe_set bits j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits j) lor !byte))
  done

let derive seed label =
  Splitmix64.mix (Int64.logxor (Splitmix64.mix seed) (Int64.mul 0xD1342543DE82EF95L (Int64.of_int label)))
