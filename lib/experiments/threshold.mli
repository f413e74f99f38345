(** Monte-Carlo estimation of critical probabilities, for the CLI's
    [threshold] command: a robust bisection over [p] for the point where
    a monotone event (a giant component exists, two vertices connect)
    starts holding, with repeated sampling at each pivot. Each pivot is
    one {!Runner.grid} and each sample runs on its own derived world
    seed, so the estimate is identical for every [jobs] value. *)

val success_rate :
  ?jobs:int ->
  name:string ->
  Prng.Stream.t ->
  trials:int ->
  event:(seed:int64 -> bool) ->
  float
(** [success_rate ~name stream ~trials ~event] runs [event] on the
    world seeds [Coin.derive (seed stream) t] for [t] = 1 .. [trials]
    and returns the success fraction of those measured. [name] names
    the event in the checkpoint key. [jobs] defaults to
    {!Engine_par.Pool.default_jobs}.
    @raise Invalid_argument if [trials <= 0]. *)

val bisect :
  ?jobs:int ->
  ?trials_per_pivot:int ->
  ?iterations:int ->
  name:string ->
  Prng.Stream.t ->
  event:(p:float -> seed:int64 -> bool) ->
  lo:float ->
  hi:float ->
  float
(** [bisect ~name stream ~event ~lo ~hi] assumes the probability of
    [event] increases in [p] from near 0 at [lo] to near 1 at [hi], and
    estimates the [p] at which the success rate crosses 1/2. Round [r]
    (counting down from [iterations]) samples its pivot on
    [split stream r], named [name] with the pivot's [p] appended.
    Defaults: 40 trials per pivot, 12 iterations.
    @raise Invalid_argument if [lo >= hi]. *)
