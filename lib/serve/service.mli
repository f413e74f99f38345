(** The streamed query service behind [faultroute serve].

    {!start} loads a {!Session} manifest into a running session: every
    distinct manifest world — distinct by (graph name, [p], [site_p],
    seed) — is built {e exactly once} and prefilled
    ({!Percolation.World.prefill}), so worker domains read it without
    writes, and entries naming the same world share it. {!serve} then
    answers newline-delimited JSON queries ({!Query}) from a line
    source, sharding batches across {!Engine_par.Pool} and streaming
    one answer line per admitted query, in input order. Each valid
    query runs as one {!Obs.Trace.observe}d attempt.

    {2 Determinism}

    Query [i] (1-based admission order) draws all of its randomness
    from [Prng.Stream.split (create session.seed) i]; resident worlds
    are immutable after {!start}. Batches are only backpressure —
    answers are tallied and written sequentially in admission order
    after each batch, so answer bytes, evidence bytes, and trace bytes
    are identical for every [jobs] value {e and} every queue capacity.
    [stats] queries force a flush first, making their counters a pure
    function of their admission index; the reply also quotes
    [probes_p50]/[probes_p95]/[probes_p99] — bucket-quantile estimates
    ({!Obs.Hist.quantile}) over the route answers so far, [null]
    before the first one. The quantile histogram is fed in admission
    order from a local always-on registry, so these fields are equally
    jobs- and telemetry-invariant.

    {2 Telemetry}

    With {!Obs.Telemetry} enabled the session reports, out-of-band:
    per-query-type latency histograms ([serve.latency.<op>_ns], each
    query timed on its worker domain, recorded at the sequential
    tally), queue gauges ([serve.queue_depth], [.queue_depth_peak]),
    progress gauges ([serve.admitted]/[.answered]/[.rejected]), and a
    [telemetry/v1] heartbeat line after flushes (rate-limited) plus one
    final forced heartbeat. All of it is reporting-layer: answer,
    evidence and trace bytes are byte-identical with telemetry on or
    off, at any [--jobs].

    {2 Failure containment}

    A malformed line gets an [ok:false] answer (outcome [malformed]);
    a semantically bad query — unknown world, vertex out of range,
    inapplicable router, op outside the session mix — gets an
    [ok:false] answer (outcome [error]); neither kills the session.
    Only admission-cap overflow is reported at the session level (the
    excess lines are drained, counted, and answered with nothing). *)

type t
(** A running session: manifest + resident worlds. *)

val start : Session.t -> (t, string) result
(** Build every distinct manifest world once. [Error] on an unbuildable
    topology — a manifest error, like a parse failure. *)

val session : t -> Session.t

type outcome = {
  evidence : Evidence.t;
  overflowed : bool;
      (** The admission cap rejected at least one line — the session
          should exit with {!Verdict.Exit_code.queue_overflow}. *)
}

val serve :
  ?jobs:int ->
  t ->
  read:(unit -> string option) ->
  write:(string -> unit) ->
  outcome
(** Answer queries from [read] (one raw line per call, [None] at end
    of stream; blank lines are skipped) by passing complete answer
    lines — newline included — to [write], in admission order. With
    {!Obs.Trace} enabled, emits one [trace/v1] run (probe-level events
    per evaluated query); with {!Obs.Metrics} enabled, absorbs
    per-query counters, session totals ([serve.*]) and the world
    construction counters into the global registry:
    [worldpool.constructed] counts distinct worlds built,
    [worldpool.hits] the manifest entries that shared one. [jobs] defaults to {!Engine_par.Pool.default_jobs}. *)

val read_lines : in_channel -> unit -> string option
(** A [read] function over a channel. *)

val run :
  ?jobs:int ->
  Session.t ->
  read:(unit -> string option) ->
  write:(string -> unit) ->
  (outcome, string) result
(** {!start} then {!serve}. *)
