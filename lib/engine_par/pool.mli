(** A deterministic fork-join pool on OCaml 5 domains.

    The pool executes an indexed family of pure tasks, handing out
    indices dynamically (a shared atomic counter acts as the work
    queue, so idle domains steal the next undone index). Because tasks
    are indexed and results land in index order, {e scheduling never
    shows in the output}: callers that fold the returned prefix in
    index order observe bit-identical results for any job count.

    Nesting: a task that itself calls into the pool runs its inner
    tasks inline on the current domain — parallelism is applied at the
    outermost level only, so worker counts never multiply.

    Crash barrier: the first exception raised by any task cancels the
    pool (remaining workers stop at the next task boundary), and the
    exception is re-raised in the caller with its original backtrace
    once every domain has been joined.

    Telemetry: when {!Obs.Telemetry} is enabled, every outermost
    dispatch reports per-domain slot gauges
    ([pool.domain.<slot>.busy_s] / [.wall_s] / [.tasks], slot 0 being
    the caller) plus [pool.task_ns] and [pool.queue_wait_ns]
    histograms, accumulated domain-locally and published at slot end —
    purely reporting-layer, results are byte-identical with telemetry
    on or off. Disabled (the default), the hook is one atomic load per
    dispatch. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's default job
    count. *)

val default_jobs : unit -> int
(** The ambient job count used when an entry point takes no explicit
    [?jobs]. Starts at 1 (fully sequential); the CLI raises it from
    [--jobs]. *)

val set_default_jobs : int -> unit
(** Set the ambient job count.
    @raise Invalid_argument if the argument is not positive. *)

val collect_prefix :
  ?jobs:int -> limit:int -> until:('a -> bool) -> (int -> 'a) -> 'a array
(** [collect_prefix ~jobs ~limit ~until work] computes [work i] for a
    contiguous prefix of the indices [0 .. limit - 1] and returns the
    results in index order.

    Indices are dispensed in order. After each completed task its
    result is passed to [until]; once [until] returns [true] no
    further indices are dispensed (tasks already started still
    finish, so the returned prefix can extend past the triggering
    index — with [jobs = 1] it stops exactly there). The guarantee
    callers rely on: the returned prefix always contains every index
    up to and including the first one whose result made [until] answer
    [true], so a caller that scans the prefix in order and applies its
    own cutoff sees the same data for any job count.

    [work] must be pure (results may be computed in any order and must
    not depend on each other); [until] must be thread-safe — it may be
    called concurrently from several domains.

    [jobs] defaults to {!default_jobs}[ ()]; inside a pool task it is
    forced to 1.
    @raise Invalid_argument if [jobs <= 0] or [limit < 0]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] is [Array.map f xs] computed on [jobs] domains.
    [f] must be pure; the result is identical to the sequential map
    for any job count. *)
