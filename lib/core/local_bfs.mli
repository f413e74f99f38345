(** Local breadth-first routing — the universal local baseline.

    Explores the open cluster of the source outward, probing every edge
    incident to each reached vertex. In the worst case this is the
    "probe the entire graph" upper bound mentioned after Definition 2;
    on the double tree and on [H_{n,p}] with [α > 1/2] it exhibits the
    exponential lower bounds (Theorems 3(i) and 7), and on [G_{n,p}] the
    [Ω(n²)] bound (Theorem 10) — no local algorithm can beat those, so
    measuring BFS measures the regime, not the algorithm. *)

val router : Router.t
(** Probes neighbours in the topology's order. *)

val router_randomized : Prng.Stream.t -> Router.t
(** Same search, but each vertex's incident edges are probed in an order
    shuffled by the stream — removes any bias from the topology's
    neighbour enumeration (used to check order-independence of results). *)

val search :
  Percolation.Oracle.t ->
  ?order:(int -> int array -> int array) ->
  start:int ->
  stop:(int -> bool) ->
  unit ->
  int option
(** [search oracle ~start ~stop ()] is the probing breadth-first loop
    both local routers run: from [start], probe every edge of each
    reached vertex, visiting vertices in BFS order, and return the
    first vertex [v] reached through an open edge with [stop v] — or
    [None] once [start]'s open cluster is exhausted (or the oracle's
    budget raised). [stop] is tested once per vertex, when an open
    probe first reaches it, and never on [start]. [order u neighbors]
    gives the probe order of [u]'s edges (default: the topology's
    order) and may permute [neighbors] in place. {!Path_follow} runs
    one search per backbone stage. *)
