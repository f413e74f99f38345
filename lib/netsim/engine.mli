(** The synchronous simulation engine.

    Rounds proceed in lockstep: at round [r] each node receives the
    messages that were sent to it over open links during round [r-1]
    and queues its own sends for round [r+1]. A node runs its protocol
    step in round [r] only if it has mail or its state is not idle
    (the protocol's [idle]); the nodes that step do so in ascending
    id order, so a round costs time in proportion to the traffic, not
    to the number of nodes.

    Link liveness comes from the percolation world; nodes learn it only
    through probes and deliveries, so the engine is a distributed
    realization of the paper's probe model (messages double as free
    one-sided evidence that a link is open — exactly like a successful
    probe).

    {2 Cost model}

    A round costs its sends, probes and woken nodes, not its
    bookkeeping. Each step allocates the node's {!Api.t} record and
    its [neighbors] array; [probe], [send] and [random_int] are built
    once per engine, and the counters are plain fields ({!Metrics}).
    On a cached world ({!Percolation.World.cached}) [neighbors] is a
    slice of the node's row in the graph's own {!Topology.Csr}; a
    lazy world calls the graph's [neighbors] closure. [send] and
    [probe] call the graph's [edge_id] once and pass the id to
    {!Percolation.World.is_open_id}; a probe also looks the id up in
    a hash table of distinct probed edges. Under churn, a probe and a
    send on an open link add one {!Churn.link_up}, amortized O(1). *)

type ('state, 'message) t

val create :
  ?seed:int64 ->
  ?link_capacity:int ->
  ?churn:Churn.plan ->
  Percolation.World.t ->
  ('state, 'message) Protocol.t ->
  ('state, 'message) t
(** [create world protocol] initialises every node's state. [seed]
    (default derived from the world seed) drives the per-node
    [random_int] streams only — link states belong to the world.
    It allocates O(|V|) words and no churn state (a link's cursor is
    made at its first query). On a cached world it reads the graph's
    own rows ({!Topology.Csr.of_graph}), the ones the world reads.

    [link_capacity] switches the network from unbounded bandwidth (the
    default: every sent message on an open link arrives next round) to
    store-and-forward: each {e directed} open link delivers at most
    that many messages per round, with the excess waiting in the
    link's queue — the congestion model permutation-routing experiments
    need. @raise Invalid_argument if it is [< 1].

    [churn] layers a round-indexed up/down overlay on every edge (see
    {!Churn}): a probe answers [open && up], a send on an open-but-down
    link is dropped (counted in [netsim.churn.blocked]), and a
    capacity-limited link holds its backlog while down. The overlay is
    instantiated against the world's seed, so churned runs inherit the
    engine's full determinism guarantees. *)

val world : ('state, 'message) t -> Percolation.World.t

val churned : ('state, 'message) t -> bool
(** Whether a churn overlay is active. *)

val protocol_name : ('state, 'message) t -> string
val round : ('state, 'message) t -> int
val metrics : ('state, 'message) t -> Metrics.t

val state : ('state, 'message) t -> int -> 'state
(** Current state of a node. *)

val inject : ('state, 'message) t -> node:int -> sender:int -> 'message -> unit
(** [inject t ~node ~sender m] delivers [m] to [node] at the start of
    the next round, bypassing any link (used to start protocols:
    conventionally [sender] is the node itself). Not counted as a sent
    message.
    @raise Invalid_argument naming the vertex if [node] is not a vertex
    of the world's graph. *)

val in_flight : ('state, 'message) t -> int
(** Messages queued for delivery next round, plus any backlog sitting in
    capacity-limited link queues. *)

val run_round : ('state, 'message) t -> unit
(** Execute one synchronous round. *)

val run :
  ?max_rounds:int ->
  until:(('state, 'message) t -> bool) ->
  ('state, 'message) t ->
  [ `Stopped of int | `Quiescent of int | `Out_of_rounds ]
(** [run ~until t] executes rounds until [until t] holds ([`Stopped]
    with the round count), the network goes quiescent — no messages in
    flight after a round ([`Quiescent]; protocols that spontaneously
    send, like gossip, never go quiescent) — or [max_rounds] (default
    10,000) elapse. *)

val fold_states :
  ('state, 'message) t -> init:'acc -> f:('acc -> int -> 'state -> 'acc) -> 'acc
(** Fold over all node states (for aggregate queries). *)
