(** The deterministic chunked runner: one supervised, fault-injectable,
    checkpointable map over an index space.

    The index space is cut into fixed chunks of {!chunk_size} — a
    constant, never a function of the job count, so a caller that
    merges per-chunk results in chunk order gets the same merge tree
    however many domains ran. Without an armed supervisor policy, a
    fault plan or a checkpoint this is the plain
    {!Engine_par.Pool.collect_prefix}; otherwise every chunk runs in
    {!Engine_par.Supervisor}'s retry loop, with injection from the
    ambient [faultplan/v1] and lookup/store through {!Checkpoint}.

    Callers: {!Trial} (one routing attempt per index, with a quota of
    [trials] acceptances), E26 (one
    churned simulation per index, {!Checkpoint.floats} cells) and
    {!grid}, which carries every library sweep over independent worlds:
    {!Threshold}, E6's depth × p connectivity, E17's η estimate, the
    giant-fraction curves of E19 and E23, and the degradation sweep of
    E22 and E25.

    The contract: [compute] must be a {e pure} function of its index —
    derive every random decision from a per-index stream split, never
    from shared mutable state — and [key] must be a canonical string
    naming everything the cells depend on except the job count. Then
    chunk results are pure in [(key, chunk)]: the output is
    byte-identical at any [--jobs], under any recoverable fault plan
    and across a resume, and a resume with any parameter changed misses
    and recomputes. *)

val chunk_size : int
(** Indices per chunk: 4. *)

val run :
  ?jobs:int ->
  key:string Lazy.t ->
  codec:'a Checkpoint.codec ->
  count:int ->
  ?quota:int * ('a -> bool) ->
  (int -> 'a) ->
  'a array option array * Engine_par.Supervisor.summary
(** [run ~key ~codec ~count compute] evaluates [compute i] for the
    indices [0 .. count - 1] and returns a contiguous prefix of the
    chunks in index order: chunk [c] holds the cells of indices
    [c * chunk_size] up to [min count ((c + 1) * chunk_size) - 1], or
    is [None] if the supervisor quarantined it. The summary lists this
    run's faults ({!Engine_par.Supervisor.empty_summary} on the plain
    path); they are also absorbed into the supervisor's global summary.
    [key] is forced and digested on the calling domain, and only when a
    checkpoint is active. [jobs] defaults to the ambient pool default.

    Without [quota] every chunk comes back whole. [quota:(n, counts)]
    says the caller uses cells in index order, up to and including the
    [n]-th cell for which [counts] holds, and no further. The runner
    keeps an ordered frontier: the number of leading chunks that have
    completed and the counted cells they hold; a chunk that completes
    out of order waits until the frontier reaches it. A chunk computes
    its cells one at a time and ends after the first cell at which
    every earlier chunk has completed and the frontier's count plus its
    own reaches [n]; it then comes back shorter, holding at least one
    cell. On the sequential path (one job, or nested inside a pool
    task) that always holds, so no cell past the [n]-th counted one is
    computed. On the parallel path a chunk ends early only if its
    predecessors finish first; otherwise it runs whole. No further
    chunk is dispensed once the chunks completed so far, in any order,
    hold [n] counted cells, and the prefix still reaches every chunk
    dispensed before that (see {!Engine_par.Pool.collect_prefix}). So
    the returned prefix holds every cell up to the [n]-th counted one,
    or every chunk when fewer than [n] are counted; cells past it may
    or may not be there, depending on the schedule. [counts] may be
    called from several domains at once.

    A quarantined chunk never completes, so the frontier stalls there
    and every later chunk runs whole. A shortened chunk is journaled as
    it is: it was cut only after the [n]-th counted cell of a prefix in
    which every chunk completed, which the key fixes. A journaled chunk
    shorter than its span that is looked up after a gap (a chunk before
    it that this run must compute) is used only once the frontier shows
    it holds enough; until then its remaining cells are computed as a
    fresh chunk's would be, and the longer chunk is appended again.
    Journals of whole chunks resume as before.

    On a resume the journal's restored chunks [0, 1, ...], up to the
    first it lacks, pass through the frontier in order on the calling
    domain before anything is dispatched. Only the chunks after that
    prefix are dispatched, and none once the quota is met, so a resume
    computes no chunk its journal already makes unnecessary. Each
    restored chunk is looked up, and counted, once. The chunks of that
    prefix are never supervised, so a fault plan never fires on them. A
    restored chunk after the first gap is dispatched with the rest and
    meets the injector like a computed one: under a plan it cannot
    recover from, it is quarantined although the journal holds it.
    @raise Invalid_argument on negative [count] or a quota below 1. *)

val cell : 'a array option array -> int -> 'a option
(** [cell chunks i] is index [i]'s cell in {!run}'s chunks, [None]
    when its chunk was quarantined. It is for runs without a quota,
    whose chunks come back whole; a quota's chunks can end short. *)

val grid :
  ?jobs:int ->
  name:string ->
  Prng.Stream.t ->
  cells:int ->
  trials:int ->
  (int -> int -> float array) ->
  float array array array
(** [grid ~name stream ~cells ~trials compute] runs [compute cell trial]
    as index [cell * trials + trial] of one {!run} with
    {!Checkpoint.floats} cells. Entry [.(cell)] holds that cell's
    values in trial order, without the trials of a quarantined chunk.
    The key is [name], [stream]'s seed and the shape, so [name] must fix
    everything else the cells read: an experiment passes its id and
    mode. [compute] derives its own streams; build per-cell set-up
    outside it.
    @raise Invalid_argument on a negative shape. *)

val mean : float array array -> int -> float
(** [mean rows i] is the mean of entry [i] over a cell's [rows], summed
    in trial order ([nan] for no rows). *)
