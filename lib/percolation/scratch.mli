(** Per-domain scratch arrays for queries over cached worlds.

    A query over a cached world ({!World.cached}) keeps its state in flat
    arrays indexed by vertex or edge id: an oracle's predecessor links
    and probe memo, a BFS's visited bits and queue. Allocating and
    filling them afresh makes every query cost O(|V|), however few
    probes it makes. A {!key} names one user's set of arrays, a
    {!slab}; each domain keeps one slab per key, grown to the largest
    request it has served, and lends it to one query at a time:

    - {!lease} hands out the domain's slab, grown if needed. While it is
      held, every other {!lease} of that key on the same domain (a
      nested query) gets a fresh slab of the requested sizes, exactly
      what the query would allocate without scratch.
    - The query writes only what it touches. In the [finally] of a
      [Fun.protect] around its work, it restores what it wrote, so the
      reset costs O(touched) rather than O(|V|), and then calls
      {!release}.

    At rest a slab's [bits] are all zero. Its [ints] are all -1 when
    fresh; a user that reads an entry before writing it must restore
    the -1 before release, and one that writes every entry first need
    not. [log] has no invariant. A query finds every entry it may read
    in the state fresh arrays would have, so scratch is never
    observable except through speed. A slab lives as long as its domain: the process for
    the main domain, one outermost dispatch for a pool worker. *)

type slab = private {
  bits : Bytes.t;  (** All zero at rest. *)
  ints : int array;  (** Fresh: all -1. *)
  mutable log : int array;  (** No invariant; {!log_set} grows it. *)
  home : home option;  (** The domain cell a leased slab returns to. *)
}

and home
(** A domain's cell for one key: its resting slab and whether it is
    held. *)

type key
(** One user's slabs, one per domain. Make keys once, at module
    initialisation. *)

val key : unit -> key
(** A new key. *)

val lease : key -> bits:int -> ints:int -> log:int -> slab
(** [lease key ~bits ~ints ~log] is this domain's slab for [key], with
    at least [bits] bytes, [ints] ints and [log] log slots, now held;
    or, when that slab is already held, a fresh unpooled one of exactly
    those sizes. Pair every lease with {!release}. *)

val release : slab -> unit
(** Return a leased slab to its domain, which must be at rest again
    (the caller restored what it wrote). A no-op on a fresh one. *)

val log_set : slab -> int -> int -> unit
(** [log_set slab i x] writes [x] at [log.(i)], doubling [log] first
    when [i] is past its end. *)

val leases_held : unit -> int
(** Slabs currently held on this domain, over all keys. Exists for
    tests: it is 0 between queries. *)
