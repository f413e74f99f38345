(** Run telemetry: wall-clock gauges and latency histograms emitted as
    [telemetry/v1] heartbeat lines — the service-facing sibling of
    {!Timing}.

    Strictly reporting-layer, like {!Timing}: nothing recorded here may
    influence result bytes, so a telemetry-enabled run stays
    byte-identical to a telemetry-off run at any [--jobs]. Values are
    floats (seconds, nanoseconds, counts-as-floats); the deterministic
    integer side lives in {!Metrics}.

    One process-global registry behind a mutex. Callers on hot paths
    that would contend (pool workers) accumulate into a private
    {!Hist.t} and {!absorb} it once per unit of work; everything else
    calls the locked one-shot recorders. When disabled (the default)
    every recorder reduces to one [Atomic.get] branch. *)

val on : unit -> bool
val enabled : bool Atomic.t

val enable : unit -> unit
(** Arm recording and start the uptime clock. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all cells and restart the uptime clock. *)

(** {2 Recording} *)

val add_to : string -> float -> unit
(** Accumulate into a float gauge (creating it at 0). *)

val set_gauge : string -> float -> unit
(** Overwrite a gauge — for instantaneous readings (queue depth). *)

val max_gauge : string -> float -> unit
(** Keep the maximum seen — for peaks. *)

val observe_ns : string -> float -> unit
(** Record one duration (nanoseconds) into the named histogram
    (a {!Hist.t}: power-of-two nanosecond buckets). *)

val absorb : string -> Hist.t -> unit
(** Merge a privately filled histogram into the named global one (one
    lock acquisition); no-op when it is empty or telemetry is off. *)

(** {2 Snapshots and heartbeats} *)

type view = {
  uptime_s : float;  (** seconds since {!enable}/{!reset} *)
  gauges : (string * float) list;  (** name-sorted *)
  hists : (string * Hist.t) list;  (** name-sorted copies *)
}

val snapshot : unit -> view

val hist_quantile_ns : Hist.t -> float -> float option
(** {!Hist.quantile}, under the name the repository benchmark reads
    latency percentiles by. *)

val to_json_line : ?seq:int -> ?extra:(string * Json.t) list -> view -> string
(** One [telemetry/v1] JSONL line:
    [{"schema": "telemetry/v1", "seq": n, ...extra, "uptime_s": ..,
    "gauges": {...}, "histograms": {name: {count, sum_ns, min_ns,
    max_ns, p50_ns, p95_ns, p99_ns, buckets: [[lb, n], ...]}}}].
    Ends in a newline. [extra] fields (session id, progress counters)
    are spliced in right after the schema tag; [seq] (emitted by
    {!heartbeat}, omitted when absent) precedes them. *)

val set_sink : (string -> unit) -> unit
(** Where heartbeat lines go; default writes to stderr. *)

val heartbeat : ?extra:(string * Json.t) list -> unit -> unit
(** Emit a snapshot line to the sink now (when enabled). Each emitted
    line carries a monotonic [seq] field (1, 2, 3, ... per
    {!enable}/{!reset}), so a gap in a heartbeat file proves lines
    were dropped after emission — {!Inspect} and [faultroute top]
    flag such gaps. *)

val maybe_heartbeat : ?extra:(string * Json.t) list -> unit -> unit
(** Emit only if at least a second has passed since the last
    emission — cheap enough to call once per batch. *)
