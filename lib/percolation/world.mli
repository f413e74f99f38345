(** A percolation world: a topology together with a retention probability
    and a seed that jointly determine the open/closed state of every edge.

    The state of an edge is a pure function of [(seed, edge id)]
    ({!Prng.Coin}), so a world needs O(1) memory regardless of graph
    size, every observer of the same world sees the same states, and
    worlds built with the same seed but larger [p] contain each other
    monotonically. That is the standard monotone coupling (edge [e] is
    open at [p] iff one uniform [U_e < p]), and it is how every
    threshold scan shares draws across [p]: build [create graph ~p
    ~seed] at each [p] with one seed. Two such worlds nest bit for bit,
    and so do their vertex-survival coins under [?site_p].

    {2 Cached vs lazy representation}

    Queries are served by one of two observationally identical paths:

    - {e lazy} (the historical behaviour): every [is_open] call rehashes
      [(seed, edge id)]. O(1) memory; the only choice for implicit
      graphs whose [edge_id_bound] is astronomically large.
    - {e cached}: construction fills a flat bitset over
      [\[0, edge_id_bound)] with every edge coin (and one over vertices
      with every survival coin, under site percolation) in a single
      sequential {!Prng.Coin.bernoulli_fill} sweep, and reads the
      graph's own {!Topology.Csr} rows, which every world over that
      graph value shares (the first world fills them). That is all a
      cached world carries: adjacency queries scan a vertex's CSR row
      and test each slot's coin bit (removal overlays are read by the
      slot's edge id), so no query rehashes, calls the graph's
      [neighbors] closure or writes to the world. Only {!prefill} adds
      state: exact-size open rows for resident worlds, read by
      {!Reveal}'s BFS. Both paths evaluate the {e same} pure coin
      function, so results are bit-identical; only the work differs.

    [create] picks the cached path automatically whenever the graph is
    small enough ({!cache_gate}); [~cache:false] forces the lazy path
    (the reference for differential tests and benchmarks), [~cache:true]
    requests the cache but is still subject to the size gate.

    For the {e worst-case} fault model of the paper's introduction a
    world can additionally carry a set of adversarially removed edges
    ({!remove_edges}): those are closed regardless of their coins, and
    everything downstream — oracles, routers, reveals, censuses —
    behaves identically over the overlaid world. Removal overlays share
    the coin cache of the world they derive from (coins are a pure
    function of the seed; only the overlay differs). *)

type cache
(** Coin bitsets over the graph's CSR, plus the open rows {!prefill}
    cuts; never observable except through speed. *)

type t = private {
  graph : Topology.Graph.t;
  p : float;
  seed : int64;
  removed : (int, unit) Hashtbl.t option;  (** Adversarial deletions. *)
  site_p : float option;  (** Vertex survival probability, if sites fail. *)
  cache : cache option;  (** Present iff this world runs the cached path. *)
}

val cache_gate : int
(** Worlds whose graph has [edge_id_bound] and [vertex_count] both at
    most this bound are cached by default; larger graphs always use the
    lazy path. *)

val create :
  ?site_p:float -> ?cache:bool -> Topology.Graph.t -> p:float -> seed:int64 -> t
(** [create graph ~p ~seed] is a bond-percolation world. With
    [?site_p:q], vertices additionally fail independently (survive with
    probability [q], the {e site} model of Hastad–Leighton–Newman's node
    faults): an edge is open iff both endpoints are alive {e and} its
    own coin succeeds. Pure site percolation is [~p:1.0 ?site_p].
    Vertex coins live in a separate seed namespace, independent of the
    edge coins.

    [?cache] selects the representation: [true] (default) memoises coin
    flips in flat bitsets when the graph fits under {!cache_gate};
    [false] forces the lazy reference path. Either way the observable
    edge states are identical.
    @raise Invalid_argument if [p] or [site_p] is outside [\[0, 1\]]. *)

val cached : t -> bool
(** Whether this world runs the cached fast path. *)

val graph : t -> Topology.Graph.t
val p : t -> float
val seed : t -> int64

val remove_edges : t -> (int * int) list -> t
(** [remove_edges w edges] is [w] with the listed edges forced closed
    (cumulative with any earlier removals; [w] itself is unchanged).
    The derived world shares [w]'s coin cache.
    @raise Topology.Graph.Not_an_edge if a pair is not an edge. *)

val removed_count : t -> int
(** Number of adversarially removed edges. *)

val site_p : t -> float option
(** The vertex survival probability, when sites fail. *)

val vertex_alive : t -> int -> bool
(** Whether a vertex survived site percolation (always [true] in a
    bond-only world). A dead vertex has every incident edge closed.
    @raise Invalid_argument if the vertex is out of range. *)

val prefill : t -> unit
(** Cut every vertex's open-adjacency row once, into two exact-size
    arrays (offsets and targets, one word per open slot), for a world
    that will answer many queries: {!Reveal}'s BFS (its connectivity,
    cluster and ball queries) then reads a row instead of testing its
    coin bits; every other query still scans CSR rows.
    Queries never write to a world, prefilled or not, so any world can
    be shared read-only across domains; [prefill] itself writes, so
    call it before sharing — as [faultroute serve]'s resident worlds
    ({!Serve.Service.start}) do. Idempotent. No-op on lazy (uncached)
    worlds, which have no rows to cut. Observable states are
    unchanged: prefill evaluates the same pure coin function queries
    would. *)

val is_open : t -> int -> int -> bool
(** [is_open w u v] is the state of edge [{u,v}].
    @raise Topology.Graph.Not_an_edge if they are not adjacent. *)

val is_open_id : t -> int -> int -> id:int -> bool
(** [is_open_id w u v ~id] equals [is_open w u v] given
    [id = (graph w).edge_id u v] — the fast path for callers that have
    already resolved the edge id ({!Oracle}'s probe loop resolves it
    once per probe for its own memo). Unspecified if [id] is not the
    edge's id. *)

val open_neighbors : t -> int -> int array
(** Adjacent vertices reachable through open edges — adjacency in the
    percolated graph [G_p], in the graph's [neighbors] order. The result
    is a fresh array; callers may keep or mutate it. *)

val iter_open_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_open_neighbors w v f] calls [f] on every open neighbor of [v]
    in the same order as {!open_neighbors}, without building the result
    array — the allocation-free primitive for BFS hot loops. *)

val iter_open_edges : t -> (int -> int -> unit) -> unit
(** [iter_open_edges w f] calls [f u v] once per open edge, with
    [u < v], in {!Topology.Graph.iter_edges} order: a scan of CSR rows
    with coin-bit tests on cached worlds, [iter_edges] with {!is_open}
    on lazy ones. Cost O(Σ degree); small graphs only. *)

val raw_open_bits : t -> Bytes.t option
(** [Some bits] when an edge's state is exactly bit [id] of [bits]:
    the world is cached, bond-only, and carries no removal overlay.
    The bitset is the live coin cache — treat it as read-only. [None]
    otherwise; callers fall back to {!is_open_id}. Exists so
    {!Oracle}'s fresh-probe hot path is a single bit test instead of a
    chain of cross-module calls. *)

type rows =
  | Prefilled of { offsets : int array; targets : int array }
      (** Vertex [v]'s open neighbors are [targets.(i)] for
          [offsets.(v) <= i < offsets.(v + 1)]. *)
  | Coins of { csr : Topology.Csr.t; coins : Bytes.t; alive : Bytes.t option }
      (** Slot [i] of vertex [u]'s CSR row is open iff bit
          [csr.edge_ids.(i)] of [coins] is set and, under site
          percolation, bits [u] and [csr.targets.(i)] of [alive] are. *)
(** The adjacency of a cached world: both forms list a row's open
    neighbors in {!iter_open_neighbors}' order. All arrays are the live
    cache — read-only. *)

val rows : t -> rows option
(** [Some (Prefilled _)] on a prefilled cached world, [Some (Coins _)]
    on any other cached world, [None] on lazy worlds and removal
    overlays (callers fall back to {!iter_open_neighbors}). Exists so
    {!Reveal}'s BFS inner loops are straight-line array and bit code. *)

val open_degree : t -> int -> int

val count_open_edges : t -> int
(** Number of open edges, by enumeration (small graphs only). *)
