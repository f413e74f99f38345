(** Checkpoint/resume for chunked campaigns — the [checkpoint/v1]
    journal.

    A campaign killed at chunk 900 of 1000 should not recompute the
    first 900. {!Runner} streams every completed chunk's cells to an
    append-only JSONL journal as it finishes; a resumed run looks each
    chunk up before computing it and hands the stored cells back in
    place of fresh ones, so the final report is byte-identical to an
    uninterrupted run.

    Correctness rests on two facts:

    - chunk results are pure functions of [(configuration, chunk)], so
      a restored chunk equals the chunk a fresh run would compute;
    - journal entries are keyed by a digest of everything those
      functions depend on (the caller builds the canonical string:
      {!Trial} names topology, p, endpoints, router, budget, reveal
      limit, root seed, trials, attempt cap and chunk size; E26 names
      its churn sweep; {!Runner.grid} names its caller, seed and shape)
      — everything {e except} the job count, which chunk results do not
      depend on. A resume with any parameter changed simply
      misses and recomputes.

    {2 Line format}

    One [chunk] line per chunk: the digest key, the chunk index and
    the cells, each encoded by the caller's {!codec}. The journal keeps
    cells as raw JSON and decodes them at {!lookup}; a chunk the codec
    cannot decode is a miss, recomputed and appended again. Journals
    written before the single cell format also hold [vchunk] lines
    (float-vector cells); the loader reads them as [chunk] lines, and
    their cells decode with {!floats}, so those journals still resume.

    The journal is append-only with a per-line flush, so a [kill -9]
    can lose at most the line being written; the loader tolerates a
    torn final line (and skips anything unparseable) rather than
    failing the resume. A codec serializes what the report needs and
    nothing else — {!Trial}'s cells drop their trace records and metric
    snapshots — so report bytes are unaffected, but a traced or metered
    resumed run only covers the chunks it actually recomputed.

    Like the fault plan and the supervisor policy, the checkpoint is
    ambient process state installed by the CLI ({!configure}) and
    picked up by {!Runner} — no parameter threading through experiment
    signatures. *)

type 'a codec = {
  to_json : 'a -> Obs.Json.t;
  of_json : Obs.Json.t -> 'a option;
      (** [None] rejects the cell; [of_json (to_json c)] must restore
          everything the caller's results read from [c]. *)
}
(** How one cell crosses the journal. *)

val floats : float array codec
(** Float-vector cells, each float journaled as its IEEE-754 bit
    pattern in hex, so a restored cell is bit-identical to the
    computed one (NaN payloads and [-0.] included) — decimal
    formatting would break byte-reproducible resumes. *)

val file : dir:string -> string
(** [dir/checkpoint.jsonl]. *)

val configure : dir:string -> resume:bool -> (unit, string) result
(** Activate checkpointing into [dir] (created as needed). With
    [resume] the existing journal is loaded (tolerantly) and appended
    to; without it the journal is truncated. Fault and restore counters
    reset. *)

val deconfigure : unit -> unit
(** Close the journal and deactivate. Safe when inactive. *)

val active : unit -> bool

val digest_key : string -> string
(** Hex digest of a canonical config string — the journal key. *)

val lookup : 'a codec -> key:string -> chunk:int -> 'a array option
(** The stored cells for [(key, chunk)], if the journal has them and
    [codec] decodes every one. Counts a restore on hit. *)

val store : 'a codec -> key:string -> chunk:int -> 'a array -> unit
(** Append one chunk line and flush it. No-op when inactive. When a
    kill threshold is set and this append reaches it, the process
    exits immediately with code 137 — [Unix._exit], no cleanup — the
    deterministic stand-in for [kill -9] in resume tests. *)

val set_kill_after : int option -> unit
(** Install the [Die_after_chunks] threshold from a fault plan:
    hard-kill the process after that many {!store} appends. *)

val restored : unit -> int
(** Chunks served from the journal since {!configure}. *)

val appended : unit -> int
(** Chunks appended since {!configure}. *)

val metrics_snapshot : unit -> Obs.Metrics.snapshot
(** [checkpoint.chunks.restored] / [checkpoint.chunks.appended], for
    [--metrics-out]. Operational counters: they describe this process's
    work split, not the (schedule-independent) results. *)
