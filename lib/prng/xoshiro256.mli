(** xoshiro256** pseudo-random generator (Blackman & Vigna 2018).

    The general-purpose generator used by the Monte-Carlo harness. 256 bits
    of state, period 2{^256} - 1, excellent statistical quality. Seeded
    with SplitMix64 outputs ({!Splitmix64.mix}) as the authors
    recommend. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] into a full 256-bit state with SplitMix64. *)

val of_state : int64 * int64 * int64 * int64 -> t
(** [of_state s] uses [s] directly as the state.
    @raise Invalid_argument if all four words are zero (the absorbing
    state of the underlying linear engine). *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val next_int_in : t -> int -> int
(** [next_int_in t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val next_float : t -> float
(** [next_float t] is a uniform float in [\[0, 1)]. *)

val next_bool : t -> bool
(** [next_bool t] is a fair coin flip. *)

val jump : t -> unit
(** [jump t] advances [t] by 2{^128} steps, equivalent to that many [next]
    calls. Use to partition one stream into non-overlapping substreams for
    parallel or per-worker use. *)
