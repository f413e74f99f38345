(** The one histogram of the observability layer: power-of-two buckets
    plus exact count, sum, min and max.

    {!Metrics} (integer probe counts and distances), {!Telemetry}
    (nanosecond latencies) and {!Inspect} (whatever a [metrics/v1] or
    [telemetry/v1] file carries) all hold this record, so the bucket
    scheme, the merge, the sparse wire form and the quantile estimator
    exist once.

    {2 Bucket scheme}

    Value [v ≥ 0] lands in bucket [bits v] — 0 → 0, 1 → 1, 2..3 → 2,
    4..7 → 3, so bucket [i ≥ 1] covers [\[2^(i-1), 2^i)]. Negative
    values clamp to bucket 0 and fractional ones to their integer part
    (none of our instruments produce negatives). 64 buckets cover every
    OCaml int.

    Sum, min and max are floats so one record serves both integer and
    nanosecond instruments; integer observations stay exact while the
    sum is below 2{^53}, so integer merges remain order-independent. *)

type t = private {
  mutable count : int;
  mutable sum : float;
  mutable min : float;  (** [infinity] while empty *)
  mutable max : float;  (** [neg_infinity] while empty *)
  buckets : int array;  (** 64 dense bucket counts *)
}

val create : unit -> t
(** An empty histogram. Not thread-safe: one owner at a time. *)

val copy : t -> t

val add : t -> float -> unit
(** Record one observation. *)

val absorb : into:t -> t -> unit
(** Add the second histogram's observations into [into]. *)

val merge : t -> t -> t
(** A fresh histogram holding both arguments' observations:
    associative and commutative (exactly so for integer observations). *)

val quantile : t -> float -> float option
(** [quantile h q] estimates the [q]-quantile (q in [\[0, 1\]]) from the
    buckets: the {e inclusive upper bound} of the bucket holding the
    rank-[max 1 ⌈q·count⌉] observation — bucket 0 → 0, bucket 1 → 1,
    bucket [i ≥ 2] → [2^i - 1] — clamped into [\[min, max\]]. It never
    under-reports, overestimates by less than one bucket width, and is
    exact at the extremes. [None] when [h] is empty or [q] is outside
    [\[0, 1\]] or non-finite. *)

val buckets_json : t -> Json.t
(** The sparse wire form: [\[\[lower_bound, count\], ...\]] over the
    non-empty buckets, ascending. *)

val of_json : suffix:string -> Json.t -> (t, string) result
(** Decode a histogram object with fields [count], [sum<suffix>],
    [min<suffix>], [max<suffix>] and [buckets] — [suffix] is [""] for
    [metrics/v1] and ["_ns"] for [telemetry/v1]; other fields are
    ignored. Rejects a bucket bound that is neither 0 nor a power of
    two, bounds out of ascending order, negative counts, bucket counts
    that do not sum to [count], and a null or absent min/max on a
    non-empty histogram. *)
