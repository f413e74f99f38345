(** The per-node interface a protocol sees during one round.

    A node is a state machine that knows only its own id, its potential
    incident links, and whatever it has learnt through probing and
    messages — the distributed counterpart of Definition 1's locality.
    Everything a protocol may do to the outside world goes through this
    record.

    The record and its closures are valid only during the step they
    are passed to. The engine builds [probe], [send] and [random_int]
    once and points them at whichever node is stepping, so a closure
    kept and called after its step acts for another node. *)

type 'message t = {
  node : int;  (** This node's id. *)
  round : int;  (** Current round number (first round is 1). *)
  neighbors : int array;
      (** Potential neighbours in the fault-free topology, in the
          order of the graph's [neighbors]; a fresh array each step.
          Whether each link survived percolation is only learnt by
          probing or by receiving a message over it. *)
  probe : int -> bool;
      (** [probe v] reveals whether the incident link to [v] is open.
          Counted in the global probe metrics (distinct edges once).
          @raise Topology.Graph.Not_an_edge if [v] is not a potential
          neighbour. *)
  send : int -> 'message -> unit;
      (** [send v m] transmits [m] over the incident link to [v]:
          counted as one message sent; delivered at the start of the
          next round iff the link is open (a message on a dead link is
          silently lost — sending does {e not} reveal liveness). *)
  random_int : int -> int;
      (** Per-node deterministic randomness: uniform in [\[0, bound)].
          Streams are derived from the engine seed and the node id. *)
}
