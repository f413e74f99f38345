(** One inspector for the whole observability artifact family — the
    engine behind [faultroute obs].

    {!load} sniffs a file by its [schema] tag — read from the whole
    file as one (possibly pretty-printed) JSON document, else from its
    first JSONL line — and parses {e and validates} it in one step:
    [trace/v1] (JSONL, replay-checked on load), [metrics/v1],
    [profile/v1] (into {!Timing.tree}s), [telemetry/v1] (JSONL
    heartbeats; the last line wins),
    [runledger/v1] (JSONL run records; every recorded artifact digest
    is cross-checked against the file on disk, so a tampered or stale
    artifact fails the load) and [bench_percolation/v1..v3] documents
    or history trails. A successful load {e is} schema validation —
    "obs validate" prints nothing but the verdict. *)

type table = {
  counters : (string * float) list;  (** name-sorted *)
  hists : (string * Hist.t) list;  (** name-sorted *)
}
(** The normalized counter/gauge + histogram shape metrics and
    telemetry both parse into (histograms through {!Hist.of_json}) —
    exposed so {!Top} can render heartbeats with the same tables. *)

type artifact

type kind = [ `Trace | `Metrics | `Telemetry | `Profile | `Bench | `Ledger ]

val kind : artifact -> kind
val kind_name : kind -> string

val table : artifact -> table option
(** The counter/histogram table of a [metrics/v1] artifact, or the
    final heartbeat's gauge/histogram table of a [telemetry/v1] one. *)

val seq_gap : int option -> int option -> int * int
(** [seq_gap prev seq] audits two consecutive heartbeat [seq] values:
    [(lost, reordered)] — a jump of [k > 1] lost [k - 1] lines, a
    non-advance is one reordering, and a missing [seq] (legacy files)
    is neither. The one rule behind {!report}'s warning and [top]'s
    missing-beat count. *)

val parse_heartbeat :
  Json.t -> (int option * float * string option * table, string) result
(** Decompose one [telemetry/v1] heartbeat line: monotonic [seq]
    (absent on legacy files), uptime seconds, optional session label,
    and the gauge/histogram table. *)

val load : string -> (artifact, string) result
(** Read, sniff, parse and validate one artifact file. The error
    message is prefixed with the path. *)

val pp_utilization : Format.formatter -> (string * float) list -> unit
(** The per-domain pool utilization table, folded from the
    [pool.domain.<slot>.busy_s/.wall_s/.tasks] gauges; prints nothing
    when there are none. *)

val pp_hist_rows : Format.formatter -> (string * Hist.t) list -> unit
(** One count/p50/p95/p99/max row per histogram ([_ns] names scaled to
    ms) under a header; prints nothing for an empty list. *)

val slot_rows :
  prefix:string -> leaves:string list -> (string * float) list -> (int * float array) list
(** Fold per-domain gauges [<prefix>.<slot>.<leaf>] ([prefix] is two
    dot-separated words, e.g. ["pool.domain"]) into one row per integer
    slot holding the [leaves] values in order (0 when absent),
    slot-sorted. *)

val report : Format.formatter -> artifact -> unit
(** Pretty-print one artifact: counter/gauge tables (with per-domain
    pool utilization derived from the [pool.domain.<slot>.*] gauges),
    histogram quantile rows (p50/p95/p99/max, [_ns] names scaled to
    ms), the indented span tree for profiles, the replay verdict for
    traces (including the query-span lifecycle audit), run rows with
    their artifact digests for ledgers, and the snapshot list (mode,
    timestamp, commit, metric count) for bench histories. An empty table
    prints an explicit ["(no samples)"] row; telemetry with heartbeat
    [seq] gaps prints a warning line. *)

val aggregate : artifact -> artifact -> (artifact, string) result
(** Merge two artifacts into one ([metrics/v1] only: pointwise counter
    and bucket sums, the same merge the engine itself uses). *)

val diff : Format.formatter -> artifact -> artifact -> (unit, string) result
(** Print what changed from the first artifact to the second. Both
    must be the same kind: counter/gauge/histogram deltas for metrics
    and telemetry, significant span-time movement for profiles
    (>1% and >0.1 ms), replay-verdict counts for traces, and for bench
    histories every metric shared by the second history's newest
    snapshot and the first history's newest snapshot of the same mode,
    as baseline -> current and their ratio. *)

val folded_of_profile : artifact -> (string list, string) result
(** Flamegraph folded-stack lines ["a;b;c <self-us>"] from a
    [profile/v1] artifact (zero-self nodes skipped). *)
