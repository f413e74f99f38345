(** Fault-tolerant supervision around {!Pool}.

    {!Pool.collect_prefix} has a crash {e barrier}: the first exception
    cancels the whole run. For hours-long Monte-Carlo campaigns that is
    the wrong trade — one flaky worker (a transient allocation failure,
    an injected fault, a stuck chunk) should cost one chunk retry, not
    the campaign. This module wraps each chunk in a retry loop:

    - a failed chunk (exception, injected crash or stall, or deadline
      expiry) is retried up to [policy.max_attempts] times with
      exponential backoff, {e on the same index} — tasks are pure, so a
      retried chunk recomputes the identical value and the merged
      output stays byte-identical to a fault-free run whenever every
      chunk eventually succeeds;
    - a chunk that exhausts its attempt budget is {e quarantined}: the
      pool moves on, the caller receives [Quarantined] in that slot and
      a machine-readable summary of everything that went wrong.

    Deadlines are cooperative. A stuck OCaml domain cannot be
    preempted, so the per-chunk watchdog raises inside the worker at
    {!poll} points (the trial engine polls at each attempt start) and
    additionally re-checks when the chunk returns. A chunk that never
    polls and never returns still hangs — bounding that requires
    process-level supervision (see checkpoint/resume in
    {!Experiments.Checkpoint}). *)

type injection = Pass | Crash | Stall
(** A fault-injection verdict for one (chunk, attempt) pair, decided at
    the pool boundary — see [Faultsim.Plan.injector]. [Crash] makes the
    attempt fail as if the task raised; [Stall] makes it fail as if the
    deadline watchdog fired (without burning wall time). *)

type fault_kind =
  | Injected_crash
  | Injected_stall
  | Deadline
  | Task_exception of string  (** [Printexc.to_string] of the exception. *)

val kind_string : fault_kind -> string
(** Stable identifier used in [faults/v1] JSON and trace fault lines. *)

type failure = { chunk : int; attempt : int; kind : fault_kind }

type 'a outcome = Completed of 'a | Quarantined of failure list
(** One slot of the returned prefix. [Quarantined] carries the failure
    of every exhausted attempt, in attempt order. *)

type policy = {
  max_attempts : int;  (** Attempts per chunk before quarantine, >= 1. *)
  backoff_s : float;  (** Base delay before the 2nd retry; doubles after. *)
  max_backoff_s : float;  (** Backoff cap. *)
  deadline_s : float option;  (** Per-chunk watchdog budget. *)
}

val default_policy : policy
(** 3 attempts, 1 ms base backoff capped at 250 ms, no deadline. *)

(** {2 Arming}

    The CLI arms a policy process-wide; {!Experiments.Runner} routes its
    chunks through the supervised pool exactly when {!armed} (or when a
    fault plan or checkpoint is active), so unsupervised runs keep the
    plain {!Pool} path and its cost profile. *)

val arm : policy -> unit
(** @raise Invalid_argument on a malformed policy. *)

val disarm : unit -> unit
val armed : unit -> bool
val current_policy : unit -> policy option

(** {2 Cooperative watchdog} *)

exception Deadline_exceeded

val watchdog_armed : unit -> bool
(** One atomic read; [poll] is only worth calling when [true]. *)

val poll : unit -> unit
(** Raise {!Deadline_exceeded} if the current chunk's deadline has
    passed. No-op outside a supervised chunk or without a deadline. *)

(** {2 Campaign-wide fault accounting} *)

type summary = {
  retries : int;  (** Failed attempts that were retried (or exhausted). *)
  failures : failure list;  (** Sorted by (chunk, attempt). *)
  quarantined : int list;
      (** Sorted chunk indices, one entry per lost chunk per run: chunk
          indices restart at 0 in every {!collect_prefix} call, so in
          the global summary an index repeats when several runs (the
          trial campaigns of one experiment, say) each lost a chunk of
          that index. Its length is the number of chunks lost. *)
  failed_units : string list;
      (** Non-pool units (whole experiments) that failed unrecoverably,
          as ["unit: message"]. *)
}

val empty_summary : summary

(** {2 The supervised pool} *)

val collect_prefix :
  ?jobs:int ->
  ?policy:policy ->
  ?inject:(chunk:int -> attempt:int -> injection) ->
  ?first:int ->
  limit:int ->
  until:('a -> bool) ->
  (int -> 'a) ->
  'a outcome array * summary
(** {!Pool.collect_prefix} with per-chunk supervision. [until] is
    consulted on completed results only — a quarantined chunk never
    stops dispensing. [inject] must be a pure function of
    [(chunk, attempt)] (never of scheduling), or determinism is lost;
    it defaults to no injection. The returned summary is also absorbed
    into the campaign-wide {!global_summary}.

    [first] (default 0) starts dispensing at that chunk, for a caller
    that already holds the chunks before it: slot [i] of the result is
    chunk [first + i], while [work], [inject] and the summary see
    absolute chunk indices.
    @raise Invalid_argument unless [0 <= first <= limit]. *)

val unrecoverable : summary -> bool
(** Whether anything was lost for good — the CLI's exit-5 condition. *)

val record_unit_failure : unit:string -> message:string -> unit
(** Register an unrecoverable non-pool unit (e.g. an experiment whose
    run raised) in the global summary. *)

val global_summary : unit -> summary
(** Everything absorbed since {!reset_global}, sorted. *)

val reset_global : unit -> unit

val metrics_snapshot : unit -> Obs.Metrics.snapshot
(** The global summary as [supervisor.*] counters, for [--metrics-out].
    Operational data: unlike [trial.*] counters these may legitimately
    vary across schedules (overshoot chunks, retry timing). *)

val summary_json : summary -> Obs.Json.t
(** The machine-readable [faults/v1] document. *)
