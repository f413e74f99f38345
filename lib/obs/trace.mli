(** Structured probe-level tracing — the [trace/v1] JSONL stream.

    The paper's sole cost measure is the probe count (Definition 2);
    this module records {e where} those probes go. Instrumented code
    ({!Percolation.Oracle}, {!Percolation.Reveal}, {!Routing.Router},
    the trial engine) emits events into a per-attempt ring buffer
    installed by {!observe}; its callers collect the records and write
    them to the JSONL sink in attempt order through {!write_run},
    {e out of band} — after the deterministic accumulator merge, never
    from worker domains — so tracing can change neither results nor
    their bytes, and the trace file itself is byte-identical for every
    [--jobs] value.

    When tracing is off (the default) every hook reduces to one
    predictable branch on {!on}; nothing is allocated.

    {2 The [trace/v1] schema}

    One JSON object per line. A run starts with
    [{"schema": "trace/v1", "ev": "run_start", ...}] carrying the trial
    spec, ends with [{"ev": "run_end", "attempts": n, "accepted": m}],
    and in between each attempt contributes, in attempt order:
    [attempt_start], zero or more [reveal_step] (ground-truth
    conditioning BFS), zero or more [probe] (the oracle's counted
    interface; [fresh] marks a first-time — i.e. counted — probe),
    at most one [budget_hit], and a final [accept] or [reject].
    A [dropped] line reports ring-buffer overflow (capacity
    {!default_ring_capacity}); the replay checker treats such attempts
    as unverifiable rather than wrong. Under supervision, run-level
    [fault] lines (see {!fault_line}) may appear between the last
    attempt and [run_end].

    Serve runs additionally carry {e query lifecycle spans}: [qspan]
    events keyed by admission index [q] with stage
    [admit]/[enqueue]/[execute]/[tally]. The admit/enqueue/tally forms
    are run-level lines written by the sequential session loop (see
    {!qspan_line}); the execute form is emitted inside the query's
    attempt ring and carries an [attempt] field. The replay checker
    verifies per-query ordering and exactly-once tally. *)

type reject_reason = Disconnected | Reveal_limit

type qstage = Admit | Enqueue | Execute | Tally
(** Lifecycle stage of one admitted serve query. *)

type event =
  | Attempt_start of { index : int }
  | Reveal_step of { v : int; dist : int }
      (** Ground-truth BFS discovered [v] at percolation distance
          [dist]. Uncounted by the oracle — conditioning, not routing. *)
  | Probe of { u : int; v : int; open_ : bool; fresh : bool }
      (** One oracle probe of edge [{u,v}]. [fresh = true] increments
          [distinct_probes]; [fresh = false] covers both re-probes and
          free [probe_known] hits, neither of which counts. *)
  | Budget_hit of { probes : int }
      (** The distinct-probe budget blocked a fresh probe. *)
  | Reject of { reason : reject_reason }
      (** World resampled: pair not connected ([Disconnected]) or the
          reveal limit truncated the verdict ([Reveal_limit]). *)
  | Accept of { distance : int; probes : int }
      (** Conditioned attempt measured: ground-truth distance and the
          oracle's final [distinct_probes] (the observation, possibly
          censored at the budget). *)
  | Query_span of { q : int; stage : qstage }
      (** A query lifecycle stage. Only [Execute] is emitted through
          the ring (inside the query's attempt); the run-level stages
          use {!qspan_line}. *)

val distinct_probes_of_events : event list -> int
(** Number of [Probe] events with [fresh = true] — by the oracle's
    counting contract, exactly [Oracle.distinct_probes] at the end of
    the attempt. The replay checker's independent derivation. *)

(** {2 Enable switch and sink} *)

val on : unit -> bool
(** Whether tracing is enabled (off by default). *)

val enabled : bool Atomic.t
(** The switch behind {!on}, exposed so per-edge hot loops can read it
    with an inlined [Atomic.get] instead of a cross-module call. Treat
    as read-only: arming tracing without installing a sink is a bug —
    always go through {!enable}/{!disable}. *)

val enable : sink:(string -> unit) -> unit
(** Arm tracing; [sink] receives complete JSONL lines (newline
    included) from {!write_line}. *)

val disable : unit -> unit
(** Disarm and drop the sink. *)

val write_line : string -> unit
(** Send text to the sink (the trial engine passes a whole run's lines
    in one call, so concurrent runs never interleave); no-op when
    tracing is off. An ambient sink installed by {!with_sink} takes
    precedence over the global one. *)

val with_sink : (string -> unit) -> (unit -> 'a) -> 'a
(** Redirect this domain's {!write_line} output into [sink] for the
    call (exception-safe). Lets an orchestrator that runs work units in
    parallel — e.g. [Catalog.run_all] running experiments on the pool —
    buffer each unit's trace and forward the buffers in deterministic
    order afterwards, keeping the trace file byte-identical across
    [--jobs]. *)

(** {2 Recording} *)

val default_ring_capacity : int
(** Events kept per attempt before the oldest are dropped (65536 —
    far above any quick- or paper-scale attempt). *)

val set_ring_capacity : int -> unit
(** Override the per-attempt ring capacity (tests use small rings to
    exercise the drop path).
    @raise Invalid_argument if not positive. *)

type record
(** The events of one attempt, in emission order, plus a drop count. *)

val record_index : record -> int
val record_events : record -> event list
val record_dropped : record -> int

val capture : index:int -> (unit -> 'a) -> 'a * record
(** The ring primitive behind {!observe}: run the thunk with a fresh
    ring installed as this domain's ambient buffer (restoring the
    previous one afterwards, exception-safe) and return what it
    emitted. Emits nothing itself. Call only when {!on}. *)

val emit : event -> unit
(** Append to the ambient ring; no-op when none is installed. Hot-path
    callers guard with [if Trace.on () then Trace.emit ...]. *)

(** {2 JSONL encoding} *)

val header_line : (string * Json.t) list -> string
(** The [run_start] line: given spec fields, prepends
    [schema]/[ev] tags. Includes the trailing newline. *)

val end_line : attempts:int -> accepted:int -> string

val qspan_line : q:int -> stage:qstage -> string
(** A run-level query lifecycle line
    [{"ev": "qspan", "q": N, "stage": "..."}] — written immediately by
    the sequential serve loop (admit/enqueue) or appended after a
    query's record lines (tally), so the stream stays byte-identical
    across [--jobs]. *)

val fault_line : chunk:int -> attempt:int -> kind:string -> string
(** A run-level supervision event: chunk [chunk]'s attempt [attempt]
    failed with [kind] (an [Engine_par.Supervisor.kind_string]) and was
    retried or quarantined. The trial engine writes these between the
    last attempt's events and [run_end]; they carry no probe data, so
    the replay checker only counts them. *)

val record_lines : record -> string list
(** One line per event (a trailing [dropped] line when the ring
    overflowed), each tagged with the record's attempt index. *)

(** {2 Observed units of work}

    Every unit of work whose probes the trace audits — a trial
    attempt, a serve query, one [route] or [simulate] run — runs
    through {!observe}, and every run that collects records writes
    them through {!write_run}. *)

type 'a observed = {
  value : 'a;
  record : record option;  (** [Some] exactly when tracing was on. *)
  metrics : Metrics.snapshot;
      (** The unit's own counters; {!Metrics.empty} when metrics were
          off. *)
}

val observe : index:int -> (unit -> 'a) -> 'a observed
(** [observe ~index f] runs [f] as attempt [index]. With tracing on,
    [f] runs inside a fresh ring ({!capture}) that opens with
    [attempt_start {index}]; [f] emits its own terminal [accept] or
    [reject]. With metrics on, [f] ticks a fresh ambient
    {!Metrics} registry whose snapshot is returned — the global
    registry is left to the caller. With both off it is [f ()] plus two
    atomic reads. *)

val write_run :
  header:(string * Json.t) list ->
  ?run_lines:string list ->
  attempts:int ->
  accepted:int ->
  record list ->
  unit
(** Write one whole run in a single {!write_line}: the [run_start]
    line from [header], each record's lines in list order, the
    run-level [run_lines] (e.g. {!fault_line}s) and a [run_end]
    declaring [attempts] and [accepted]. The counts are explicit
    because attempts restored from a checkpoint carry no record.
    No-op when tracing is off. *)

(** {2 Replay — the independent probe accounting check} *)

module Replay : sig
  type attempt = {
    index : int;
    fresh_probes : int;  (** Derived: [probe] events with [fresh]. *)
    stale_probes : int;  (** Derived: [probe] events without [fresh]. *)
    reveal_steps : int;
    budget_hit : bool;
    outcome : [ `Accept of int * int  (** distance, recorded probes *)
              | `Reject of reject_reason
              | `Open  (** no terminal event — truncated trace *) ];
    dropped : int;
  }

  type run = {
    header : (string * Json.t) list;  (** [run_start] fields. *)
    attempts : attempt list;  (** In attempt order. *)
    declared_attempts : int option;  (** From [run_end]. *)
    declared_accepted : int option;
    faults : int;  (** Run-level [fault] lines seen. *)
    qspans : (int * qstage) list;
        (** Query lifecycle events in emission order. *)
  }

  val parse : string list -> (run list, string) result
  (** Parse JSONL lines (with or without trailing newlines) into runs.
      Errors on malformed JSON, unknown [ev], or events outside a
      run. *)

  type verdict = {
    runs : int;
    attempts : int;
    accepted : int;
    checked : int;  (** Accepted attempts with no drops. *)
    mismatches : (int * int * int) list;
        (** (attempt, derived, recorded) where they disagree. *)
    unverifiable : int;  (** Accepted attempts with dropped events. *)
    count_errors : string list;
        (** [run_end] totals that contradict the replayed attempts. *)
    qspans : int;  (** Query lifecycle events replayed. *)
    qspan_errors : string list;
        (** Lifecycle violations: a stage out of
            admit < enqueue < execute < tally order, a duplicate
            stage, an event after (or a query without) its
            exactly-once tally. *)
  }

  val check : run list -> verdict
  (** Re-derive every accepted attempt's distinct-probe count from its
      [fresh] probe events and compare with the [accept] line's
      recorded count — an end-to-end audit of the oracle's
      accounting. Also audits query lifecycle spans (see
      [qspan_errors]). *)

  val ok : verdict -> bool
  (** No mismatches, no count errors, no lifecycle violations. *)
end
