(** A resident pool of percolation worlds, keyed and size-gated — the
    worlds [faultroute serve] keeps for a whole session.

    Each distinct [(graph, p, seed, site_p)] key is constructed at most
    once, {!Percolation.World.prefill}ed so the world is genuinely
    immutable, and then shared — including across domains, which the
    prefill makes safe. The service answers every query against the
    same resident objects. Everything else (trials, sweeps, the CLI's
    one-shot commands) builds single-use worlds with
    {!Percolation.World.create} or {!Percolation.Coupled} directly.

    {2 Size gate}

    Pooling pays when the world carries a materialised cache. Graphs
    too large for {!Percolation.World.cache_gate} get lazy worlds —
    O(1) memory, pure-function queries, nothing to share — so {!get}
    builds those per call and never retains them (they are {e already}
    safe to share; there is just nothing to save by doing so).

    {2 Eviction and accounting}

    The pool holds at most [capacity] worlds (default
    {!default_capacity}); inserting past that evicts the oldest key
    (FIFO — deterministic, no clock). Evicted worlds stay valid for
    whoever holds them; only the pool's reference is dropped.
    {!stats} / {!metrics_snapshot} expose constructions, hits and
    evictions — [worldpool.constructed] is how [make serve-smoke]
    proves each manifest world was built exactly once. *)

type t
(** A resident pool. Thread-safe: one mutex guards the table, and
    every retained world is prefilled before it becomes visible. *)

val default_capacity : int
(** 64 resident worlds. *)

val create : ?capacity:int -> unit -> t
(** An empty pool.
    @raise Invalid_argument if [capacity <= 0]. *)

val get :
  ?site_p:float ->
  t ->
  Topology.Graph.t ->
  p:float ->
  seed:int64 ->
  Percolation.World.t
(** The resident world for [(graph, p, seed, site_p)], constructing
    (and prefilling) it on first request. Worlds above the cache gate
    are built per call and not retained. *)

type stats = {
  resident : int;  (** Worlds currently retained. *)
  constructed : int;  (** Constructions performed (pooled or gated-out). *)
  hits : int;  (** Requests served from the table. *)
  evicted : int;  (** Worlds dropped by the capacity bound. *)
}

val stats : t -> stats

val metrics_snapshot : t -> Obs.Metrics.snapshot
(** [worldpool.constructed] / [.hits] / [.evicted] / [.resident]
    counters for a [metrics/v1] document. *)
