(** Splittable random streams for the experiment harness.

    A stream wraps a {!Xoshiro256} generator together with the seed it was
    derived from, so every random decision in an experiment can be traced
    back to a printable root seed. Splitting produces a child stream whose
    output is independent of both the parent's future output and of
    siblings split under different labels. *)

type t
(** A random stream. *)

val create : int64 -> t
(** [create seed] is the root stream for world [seed]. *)

val seed : t -> int64
(** [seed t] is the seed this stream was created or split from. *)

val generator : t -> Xoshiro256.t
(** [generator t] is the generator behind [t]: a draw from it advances
    [t]. *)

val split : t -> int -> t
(** [split t label] is a child stream deterministically derived from
    [t]'s seed and [label]. Splitting is a pure function of
    [(seed t, label)]: it does not advance [t], and repeated splits with
    the same label return streams with identical output. *)

val int_in : t -> int -> int
(** [int_in t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float_unit : t -> float
(** [float_unit t] is uniform in [\[0,1)]. *)

val bool : t -> bool
(** [bool t] is a fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val int64 : t -> int64
(** [int64 t] is the raw next 64-bit output. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle to [a]. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element of [a].
    @raise Invalid_argument if [a] is empty. *)
