(** The SplitMix64 finalizer and stream increment (Steele, Lea & Flood
    2014).

    SplitMix64's k-th output from seed [s] is [mix (s + k * golden_gamma)].
    This project needs no generator record: {!Xoshiro256.create}
    computes its four seed words that way, and {!Coin} hashes structured
    identifiers (edge ids) through {!mix} into independent-looking
    64-bit values for lazy percolation coins. *)

val mix : int64 -> int64
(** [mix z] is the stateless SplitMix64 finalizer: a bijective avalanche
    mixing of [z]. Used to derive per-edge coins from [(seed, edge_id)]
    pairs without storing any state. *)

val golden_gamma : int64
(** The odd constant [0x9E3779B97F4A7C15] (2{^64} / golden ratio) used as
    the SplitMix64 stream increment. *)
