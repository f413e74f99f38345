(** A registry of named counters and histograms with pure, mergeable
    snapshots — the deterministic half of the observability layer.

    Every value is an {e integer} (counts, probe totals, distances).
    Integer sums are associative and commutative, so merging snapshots
    in any order yields byte-identical JSON; the trial engine
    nevertheless merges per-attempt snapshots in fixed chunk order
    (see {!Experiments.Trial}), matching the accumulator discipline of
    [Engine_par.Pool]. Wall-clock profiling lives in {!Timing}, not
    here: floating-point time sums are order-sensitive and would break
    cross-[--jobs] byte identity.

    {2 Ambient recording}

    Instrumented hot paths ({!Percolation.Oracle}, {!Percolation.Reveal},
    routers) do not take a metrics argument — they tick the {e ambient}
    registry, a domain-local slot that {!Trace.observe} installs around
    each observed unit of work (a trial attempt, a serve query, one
    [route] or [simulate] run). When metrics
    are disabled ({!on} is [false], the default) every hook reduces to
    one predictable branch; nothing is allocated or written. *)

type t
(** A mutable registry. Not thread-safe: use one per domain (the
    ambient discipline guarantees this) and merge snapshots. *)

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to the named counter, creating it at 0 first if needed. *)

val add : t -> string -> int -> unit
(** Add [n] to the named counter. *)

val observe : t -> string -> int -> unit
(** Record one value into the named histogram (a {!Hist.t}:
    power-of-two buckets plus exact count / sum / min / max). *)

(** {2 Snapshots} *)

type snapshot
(** An immutable view: name-sorted counters and histograms. *)

val empty : snapshot
val is_empty : snapshot -> bool
val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum of counters; bucket-wise sum (and count/sum add,
    min/max combine) of histograms. Associative and commutative. *)

val counter : snapshot -> string -> int
(** Value of a counter, 0 when absent. *)

val counters : snapshot -> (string * int) list
(** All counters, sorted by name. *)

val histogram : snapshot -> string -> Hist.t option
(** The named histogram, [None] when absent or a counter. It belongs
    to the snapshot: read it (count, sum, {!Hist.quantile}), never add
    to it. *)

val to_json : snapshot -> string
(** The [metrics/v1] document: a single JSON object
    [{"schema": "metrics/v1", "counters": {...}, "histograms": {...}}]
    with name-sorted fields, integer [count]/[sum]/[min]/[max] and
    sparse [\[lower_bound, count\]] bucket pairs ({!Hist.buckets_json})
    — byte-identical for equal snapshots. Ends in a newline. *)

(** {2 Enable switch and ambient registry} *)

val on : unit -> bool
(** Whether metrics collection is enabled (off by default). *)

val enabled : bool Atomic.t
(** The switch behind {!on}, exposed so per-edge hot loops can read it
    with an inlined [Atomic.get] instead of a cross-module call. Treat
    as read-only: always arm through {!enable}/{!disable}. *)

val enable : unit -> unit

val disable : unit -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as the current domain's ambient registry for the call,
    restoring the previous one afterwards (exception-safe). *)

val tick : string -> unit
(** {!incr} on the ambient registry; no-op when none is installed. *)

val tick_n : string -> int -> unit
(** {!add} on the ambient registry; no-op when none is installed. *)

val record : string -> int -> unit
(** {!observe} on the ambient registry; no-op when none is installed. *)

(** {2 The process-global accumulator}

    [Trial.run] absorbs each run's merged snapshot here (when {!on});
    the CLI writes it out at exit via [--metrics-out]. Absorption order
    may vary across schedules — integer merges make the final bytes
    identical regardless. *)

val absorb : snapshot -> unit
(** Thread-safe add into the global accumulator. *)

val global_snapshot : unit -> snapshot

val reset_global : unit -> unit
