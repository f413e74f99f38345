(** The counting probe oracle — the cost model of the paper.

    A routing algorithm interacts with the percolated graph only through
    [probe], which reveals whether one edge is open. The oracle counts
    {e distinct} probed edges (re-probing a known edge is free: an
    algorithm could cache the answer) and enforces the paper's access
    policies:

    - [Local] (Definition 1): an edge may be probed only if one of its
      endpoints already carries an established open path from the source.
      Violations raise — lower-bound experiments cannot be accidentally
      invalidated by a cheating router.
    - [Unrestricted]: any edge may be probed ("oracle routing",
      Section 5).

    Under either policy the oracle also maintains predecessor links: a
    vertex is {e reached} once an open probed edge joins it to a reached
    vertex (the source is reached from the start), so the open path to
    any reached vertex can be reconstructed and is correct by
    construction.

    Probe memory and predecessor links are stored in flat bitsets/int
    arrays over cached worlds ({!World.cached}) and in Hashtbls over
    lazy worlds; the two stores have identical counting, locality and
    path semantics (property-tested). {!with_scratch} keeps the flat
    store in this domain's {!Scratch} slab instead of fresh arrays. *)

type policy = Local | Unrestricted

exception Locality_violation of int * int
(** Probed edge had no reached endpoint under the [Local] policy. *)

exception Budget_exhausted
(** Raised by [probe] when the distinct-probe budget would be exceeded.
    The probe that raised does not count. *)

type t

val create : ?policy:policy -> ?budget:int -> World.t -> source:int -> t
(** [create world ~source] is a fresh oracle. Default [policy] is
    [Local]; [budget] (if given) caps distinct probes.
    @raise Invalid_argument if [budget <= 0] or the source is out of
    range. *)

val with_scratch :
  ?policy:policy -> ?budget:int -> World.t -> source:int -> (t -> 'a) -> 'a
(** [with_scratch world ~source f] is [f (create world ~source)], except
    that over a cached world the oracle's flat store lives in this
    domain's {!Scratch} slab: a query that touches [k] vertices and
    edges costs O(k), not O(|V| + |E|), in set-up and reset. When [f]
    returns or raises, the store is reset (the [pred] entries of the
    reached vertices and the memo bytes of the fresh-probed ids) and
    the slab released; a nested call on the same domain gets fresh
    arrays. The oracle must not escape [f]. Observably identical to
    {!create}.
    @raise Invalid_argument as {!create} does, before [f] runs. *)

val world : t -> World.t
val policy : t -> policy
val source : t -> int

val probe : t -> int -> int -> bool
(** [probe t u v] reveals the state of edge [{u,v}].
    @raise Topology.Graph.Not_an_edge on a non-edge.
    @raise Locality_violation under [Local] if neither endpoint is
    reached.
    @raise Budget_exhausted if the budget is spent and this edge was not
    probed before. *)

val probe_known : t -> int -> int -> bool option
(** The cached result of a previous probe of this edge, if any. Free:
    neither {!distinct_probes} nor {!raw_probes} moves. When tracing is
    enabled a hit appears in the trace as a [Probe] event with
    [fresh = false] — exactly like a repeated [probe] — so a trace's
    [fresh = true] events are in bijection with counted probes, while
    its [fresh = false] events over-approximate [raw_probes - distinct_probes]
    (they include these free hits). *)

val distinct_probes : t -> int
(** Number of distinct edges probed so far — the routing complexity
    (paper Definition 2). In a [trace/v1] stream this equals the number
    of [Probe] events with [fresh = true]
    ({!Obs.Trace.distinct_probes_of_events}); the [trace] CLI
    subcommand re-derives it from there as an independent audit. *)

val raw_probes : t -> int
(** Total [probe] calls including repeats; {!probe_known} calls are
    {e not} included. Always [>= distinct_probes]. Not derivable from a
    trace — see {!probe_known}. *)

val recount_distinct : t -> int
(** Recount distinct probed edges directly from the probe-memory store
    (Hashtbl size over lazy worlds, bitset popcount over cached ones)
    rather than from the incremental counter. Always equals
    {!distinct_probes}; exported so tests and the replay tooling can
    assert the two accountings cannot drift apart. O(store size). *)

val budget_remaining : t -> int option
(** [None] if unlimited. *)

val reached : t -> int -> bool
(** Whether an open path from the source to this vertex has been
    established, under either policy: a [probe] that finds an edge open
    with exactly one reached endpoint reaches the other. Under
    [Unrestricted] an open edge probed before either endpoint is
    reached extends nothing then; a later [probe] of it (a memo hit,
    not a distinct probe) extends it once one endpoint is reached. *)

val reached_count : t -> int
(** Number of reached vertices (including the source). *)

val reached_vertices : t -> int list
(** All reached vertices, unordered. *)

val path_to : t -> int -> int list option
(** The established open path from the source to a reached vertex
    (source first), under either policy. [None] if the vertex is not
    reached. *)
