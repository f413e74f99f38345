(** Deterministic fault plans — seeded, serializable chaos.

    Supervision ({!Engine_par.Supervisor}) is only trustworthy if its
    failure modes can be provoked on demand and {e replayed}: the same
    plan must inject the same faults at the same (chunk, attempt)
    coordinates on every run, whatever the job count. A plan is
    therefore pure data — a seed plus a fault list — and its injection
    verdicts are pure functions of [(seed, chunk, attempt)], never of
    scheduling, exactly the discipline the PR-2 world-seed fix imposed
    on trial randomness.

    Plans serialize as single-object [faultplan/v1] JSON and also parse
    from a compact CLI spec (see {!of_spec}). *)

type fault =
  | Crash_on_chunk of int
      (** The first attempt at this chunk index fails as if the worker
          raised; the retry succeeds. *)
  | Stall_on_chunk of int
      (** The first attempt at this chunk index fails as if the chunk
          deadline expired; the retry succeeds. *)
  | Flaky of { rate : float; max_failures : int }
      (** Every chunk's attempt [k <= max_failures] fails with
          probability [rate], decided by a coin hashed from
          [(seed, chunk, k)]. With [max_failures] below the supervisor's
          attempt budget every chunk still succeeds eventually — the
          recoverable-chaos regime the byte-identity property tests
          run in. *)
  | Die_after_chunks of int
      (** Hard-kill the whole process (as by [kill -9]: [Unix._exit],
          no flushing, no cleanup) once this many chunk results have
          been checkpointed — the deterministic stand-in for a
          mid-campaign crash in resume tests. Interpreted by
          {!Experiments.Checkpoint}, not by the chunk injector. *)

type t = { seed : int64; faults : fault list }

val make : ?seed:int64 -> fault list -> t
(** [seed] (default 0) only matters for [Flaky] coins.
    @raise Invalid_argument on a negative chunk index, a rate outside
    [0,1], or a negative count. *)

val injector :
  t -> chunk:int -> attempt:int -> Engine_par.Supervisor.injection
(** The plan's injection verdict for one (chunk, attempt) pair — pure,
    schedule-independent. The first matching fault in plan order wins;
    [Die_after_chunks] never matches here. *)

val die_after_chunks : t -> int option
(** The process-kill threshold, when the plan carries one. *)

(** {2 Ambient plan}

    The CLI installs the loaded plan process-wide; the chunked runner
    ([Experiments.Runner]) picks it up without threading a parameter
    through the experiment signatures (the same pattern as
    [Obs.Trace]'s ambient sink). *)

val set_ambient : t option -> unit
val ambient : unit -> t option

(** {2 Serialization} *)

val to_json : t -> Obs.Json.t
(** The [faultplan/v1] document. *)

val to_string : t -> string
(** [to_json] rendered, with a trailing newline. *)

val of_json : Obs.Json.t -> (t, string) result
val of_string : string -> (t, string) result
val load : string -> (t, string) result

val of_spec : string -> (t, string) result
(** Compact CLI syntax: comma-separated
    [crash@CHUNK | stall@CHUNK | flaky:RATExMAX | die@CHUNKS | seed=N],
    e.g. ["crash@3,stall@5,flaky:0.02x2,seed=7"]. *)
