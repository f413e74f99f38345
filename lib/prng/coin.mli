(** Stateless deterministic coins for lazy percolation.

    Percolated graphs in this project are never materialised: the open or
    closed state of edge [e] in [G_p] is a pure function of the world seed
    and the edge's canonical integer id. Re-probing an edge, or observing
    the same world from a different algorithm (e.g. the ground-truth
    reveal), always yields the same answer.

    The coin for [(seed, id)] is [mix (mix (seed ^ gamma*id))] mapped to a
    uniform float in [\[0,1)]; the edge is open iff that float is [< p].
    The double SplitMix64 finalizer gives avalanche behaviour across both
    inputs, so nearby edge ids produce uncorrelated coins. *)

val uniform : seed:int64 -> int -> float
(** [uniform ~seed id] is a deterministic uniform float in [\[0,1)]
    attached to identifier [id] under world [seed]. *)

val bernoulli : seed:int64 -> p:float -> int -> bool
(** [bernoulli ~seed ~p id] is [true] with probability [p], deterministic
    in [(seed, id)]. Monotone in [p]: if it is true at [p] it is true at
    every [p' >= p] for the same seed and id. That is the monotone
    coupling threshold scans rely on: worlds built at one seed nest
    along [p] without storing a uniform per edge. *)

val bernoulli_fill : seed:int64 -> p:float -> Bytes.t -> count:int -> unit
(** [bernoulli_fill ~seed ~p bits ~count] ORs bit [id] of [bits] for
    every [id] in [\[0, count)] with [bernoulli ~seed ~p id], in one
    sequential sweep — the eager generator for cached world coin
    bitsets, so fills at one seed nest along [p] as {!bernoulli} does.
    Bits beyond [count] are untouched; bits already set stay
    set (pass a zeroed buffer for a pure fill).
    @raise Invalid_argument if [bits] holds fewer than [count] bits. *)

val derive : int64 -> int -> int64
(** [derive seed label] is a new seed deterministically derived from
    [seed] and the integer [label]. Use to give each trial, stream or
    subsystem its own independent-looking world seed. *)
