(** Ground-truth exploration of a percolation world.

    Experiments must condition on [u ~ v] (Definition 2) and distinguish
    "the router gave up" from "no path exists". This module answers such
    questions by reading edge states directly — {e without} going through
    a counting oracle, so the measured routing complexity is unaffected.

    Exploration cost is proportional to the open cluster explored, so a
    [limit] on visited vertices is available for huge graphs.

    Two BFS engines serve the queries, picked by the world's
    representation: lazy worlds use the Hashtbl-frontier reference
    engine, cached worlds ({!World.cached}) an arena engine with a
    visited bitset and an int-array queue. The arena engine reads a
    prefilled world's open rows ({!World.prefill}), any other cached
    world's CSR rows with coin-bit tests, and a removal overlay's
    neighbors through {!World.iter_open_neighbors} ({!World.rows}); it
    writes only its own bitset and queue, never the world. Those two
    arrays are this domain's {!Scratch} slab, reset through the queue
    after each search, so a search costs O(visited), not O(|V|). Both engines
    visit vertices in the same order and implement one limit convention
    (a truncated run visits exactly [limit] vertices), so every answer
    is engine-independent (property-tested). *)

type verdict = Connected of int | Disconnected | Unknown
(** [Connected d]: an open path exists and the percolation distance is
    [d]. [Unknown]: the exploration limit was hit first. *)

type engine = Table | Arena
(** Explicit engine selector. Production entry points pick by
    representation: [Table] for lazy worlds, [Arena] for cached ones
    (prefilled or not; the name predates the CSR reading).
    The [_via] entry points exist so differential tests can run the
    [Table] reference on a cached world and compare it with [Arena]. *)

val bfs_via :
  engine ->
  ?limit:int ->
  World.t ->
  int ->
  stop:(int -> bool) ->
  visit:(int -> int -> unit) ->
  [ `Stopped of int | `Truncated | `Exhausted_full ]
(** The bare engine under every query: breadth-first from the start
    vertex, calling [visit v d] on each vertex as it is discovered (the
    start first, at depth 0), until [stop] holds for a discovered vertex
    ([`Stopped d]), [limit] vertices are visited and another is found
    ([`Truncated]) or the cluster is exhausted. Not observed. Exists so
    differential tests can drive [stop] and [limit] directly, the start
    vertex included.
    @raise Invalid_argument if the start is not a vertex of the graph. *)

val connected : ?limit:int -> World.t -> int -> int -> verdict
(** [connected w u v] explores the open cluster of [u] breadth-first
    until [v] is found, the cluster is exhausted, or [limit] vertices
    have been visited. *)

val connected_via : engine -> ?limit:int -> World.t -> int -> int -> verdict
(** {!connected} on an explicit engine; every engine returns the same
    verdict and distance, with or without [limit]. *)

val trace_verdict : verdict -> probes:int -> unit
(** Emit the terminal [trace/v1] event of an attempt conditioned on
    this verdict: [accept] with the distance and [probes] for
    [Connected], [reject] ([disconnected] or [reveal_limit]) otherwise.
    No-op when tracing is off. *)

val cluster_of : ?limit:int -> World.t -> int -> int list * bool
(** [cluster_of w v] is the open cluster containing [v] (unordered) and
    a flag that is [true] when exploration was truncated by [limit]. *)

val cluster_size : ?limit:int -> World.t -> int -> int * bool
(** Size variant of {!cluster_of}: the number of vertices visited and
    the truncation flag. Counts during the walk (no intermediate member
    list). *)

val cluster_size_via : engine -> ?limit:int -> World.t -> int -> int * bool
(** {!cluster_size} on an explicit engine; the result is
    engine-independent. *)

val ball : World.t -> int -> radius:int -> (int, int) Hashtbl.t
(** [ball w v ~radius] maps every vertex within percolation distance
    [radius] of [v] to its distance. It runs the world's engine and
    stops at the first vertex past [radius]; it is not observed (no
    trace events, counters or [reveal.bfs] span).
    @raise Invalid_argument if [v] is out of range or [radius] is
    negative. *)
