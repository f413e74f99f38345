(** The rendering core of [faultroute top] — one [telemetry/v1]
    heartbeat line in, one plain-text frame out.

    Pure: the CLI owns file tailing, screen clearing and pacing, so a
    frame is a deterministic function of the heartbeat bytes and
    [--once]/[--replay] snapshots are testable as strings. A frame
    shows run progress (the [serve.*] gauges), per-domain pool
    utilization, per-domain GC pressure (the [runtime.domain.<slot>.*]
    gauges published by the pool), the process heap, and
    p50/p95/p99/max latency rows for every histogram ([_ns] names
    scaled to ms). The utilization and latency sections are
    [faultroute obs report]'s own tables ({!Inspect.pp_utilization},
    {!Inspect.pp_hist_rows}). Sections with no data are omitted. *)

type frame = {
  seq : int option;  (** Heartbeat sequence number; [None] on legacy files. *)
  uptime_s : float;
  session : string option;
  table : Inspect.table;
}

val frame_of_line : string -> (frame, string) result
(** Parse one [telemetry/v1] JSONL line. Errors on malformed JSON or a
    different schema tag. *)

val gap : prev:frame -> frame -> int
(** Heartbeats lost between two consecutive frames, by
    {!Inspect.seq_gap}: [seq] delta minus one, or 0 when either side
    carries no [seq] (or on reorder — {!Inspect.report} flags those). *)

val render : frame -> string
(** The full frame as plain text (no ANSI), newline-terminated. *)
