(** The routing-algorithm interface and the measurement entry point.

    A router is a named strategy plus the oracle policy it requires
    (local routers per Definition 1, or unrestricted "oracle routers" of
    Section 5). {!run} wires a router to a fresh counting oracle over a
    world (its flat store leased from this domain's
    {!Percolation.Scratch}, see {!Percolation.Oracle.with_scratch}),
    translates budget exhaustion into an outcome, and re-validates any
    returned path against the world — a router cannot claim a path
    that is not genuinely open. *)

type t = {
  name : string;
  policy : Percolation.Oracle.policy;
  route : Percolation.Oracle.t -> target:int -> Outcome.t;
}

exception Invalid_route of { router : string; failure : Path.failure }
(** A router returned a path that fails validation — a router bug, never
    an unlucky world. *)

val run :
  ?budget:int -> t -> Percolation.World.t -> source:int -> target:int -> Outcome.t
(** [run router world ~source ~target] performs one routing attempt.
    [budget] caps distinct probes; exceeding it yields
    [Outcome.Budget_exceeded].
    @raise Invalid_route if the router returns a bogus path. *)

val found_outcome : Percolation.Oracle.t -> int list -> Outcome.t
(** Helper for router implementations: wrap a path with the oracle's
    probe counters. *)

val trivial_outcome : Percolation.Oracle.t -> target:int -> Outcome.t option
(** [Some] outcome when source equals target (the empty routing task);
    routers call this first. *)
