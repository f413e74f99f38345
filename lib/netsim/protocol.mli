(** Protocols as values: a name, a per-node initial state, a synchronous
    round handler, and an idleness predicate.

    Using a record (rather than a functor) keeps protocols first-class:
    constructors like [Greedy_forward.protocol ~target] are plain
    functions, and the engine stays polymorphic in both state and
    message types. *)

type ('state, 'message) t = {
  name : string;
  init : node:int -> 'state;
      (** Called once per node when the engine is created. *)
  step : 'message Api.t -> 'state -> (int * 'message) list -> 'state;
      (** [step api state inbox] runs one round at one node. [inbox]
          lists [(sender, message)] pairs delivered this round, in
          arrival order. A node steps in each round in which it has mail
          or its state is not idle (so [inbox] may be empty); the
          returned state replaces the old one. *)
  idle : 'state -> bool;
      (** Whether a node in this state is passive: stepped with an empty
          inbox, an idle state must come back unchanged without calling
          anything on [api]. The engine relies on this to skip idle nodes
          without mail, and declares the network quiescent only when no
          messages are in flight {e and} every node is idle — e.g. a
          random-walk holder retrying a dead link is not idle even
          though nothing is in flight. *)
}
