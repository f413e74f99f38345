(** Samplers for classical distributions, parameterised by a {!Stream}.

    Used by workload generators (random pairs, geometric retry counts), by
    [Netsim.Churn]'s sojourn draws and by statistical tests that need
    known ground-truth distributions. *)

val geometric_step : log_q:float -> float -> int
(** [geometric_step ~log_q u] is the repository's one geometric inverse
    CDF: Geometric([p]) on [{1, 2, ...}] at the uniform [u], given
    [log_q = log1p (-. p)]. Its reference is
    [ceil (log1p (-. u) /. log_q)]. It computes the cheaper
    [y = log (1 -. u) /. log_q] and returns [ceil y] when [y] lies more
    than a relative [1e-9] from every integer, the reference otherwise.
    That is exact for the 53-bit uniforms {!Xoshiro256.next_float}
    returns: [1 -. u] is then exact and [log] and [log1p] are each
    within a few ulp, so the two quotients differ by about [1e-15]
    relative, and wherever [ceil y] is taken no integer lies between
    them. Clamps: a ceiling below 1 (at [u = 0]) gives 1, and a
    non-finite ceiling or one at or above [2{^30} - 1] gives
    [max_int / 4]; [log_q = neg_infinity] ([p = 1]) gives 1. *)

val geometric_draw : Xoshiro256.t -> log_q:float -> int
(** [geometric_draw gen ~log_q] is [geometric_step ~log_q] at the next
    uniform of [gen], except that [log_q = neg_infinity] ([p = 1])
    returns 1 without a draw. It is inlined, so the draw boxes no
    float. *)

val geometric : Stream.t -> p:float -> int
(** [geometric t ~p] is the number of Bernoulli([p]) trials up to and
    including the first success; support [{1, 2, ...}], mean [1/p].
    It is {!geometric_draw} on [t]'s generator with
    [log_q = log1p (-. p)], O(1), with its clamps: a draw that would
    reach [2{^30} - 1], possible only for [p] below about [3.4e-8], is
    [max_int / 4].
    @raise Invalid_argument if not [0 < p <= 1]. *)

val exponential : Stream.t -> rate:float -> float
(** [exponential t ~rate] samples Exp([rate]) by inversion.
    @raise Invalid_argument if [rate <= 0]. *)

val distinct_pair : Stream.t -> int -> int * int
(** [distinct_pair t n] is a uniformly random ordered pair of distinct
    integers in [\[0, n)].
    @raise Invalid_argument if [n < 2]. *)

val subset_indices : Stream.t -> n:int -> k:int -> int array
(** [subset_indices t ~n ~k] is a uniformly random size-[k] subset of
    [\[0, n)], in increasing order (Floyd's algorithm).
    @raise Invalid_argument if [k < 0] or [k > n]. *)
