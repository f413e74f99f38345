(** Flat compressed-sparse-row adjacency of a graph.

    The implicit {!Graph.t} interface computes adjacency on demand — a
    fresh array per [neighbors] call, a closure call per [edge_id].
    That is the right trade for astronomically large graphs, but for
    the size-gated graphs percolation caches cover, the hot loops
    (reveal BFS, probe sweeps, coin filling) want plain array reads.
    This module materialises adjacency once per graph: vertex [v]'s
    neighbors occupy slots [xadj.(v) .. xadj.(v+1) - 1] of [targets],
    in [neighbors] order, with the canonical edge id of each slot in
    [edge_ids].

    Only for graphs small enough to enumerate (cost and memory are
    O(Σ degree)); percolation gates callers by
    [Percolation.World.cache_gate]. *)

type t = Graph.csr = {
  xadj : int array;  (** Offsets; length [vertex_count + 1]. *)
  targets : int array;  (** Neighbor vertex per directed slot. *)
  edge_ids : int array;  (** Canonical edge id per directed slot. *)
}

val build : Graph.t -> t
(** The generic fill: one [neighbors] and one [edge_id] evaluation per
    directed edge. Every topology without a native fill uses it, and
    it is the reference the native fills (hypercube, mesh, torus) are
    tested against. *)

val of_graph : Graph.t -> t
(** The graph's own rows, held in its {!Graph.csr_cell}: the first call
    fills the cell (with the topology's native fill, else {!build}),
    and every later call on the same graph value returns the
    physically same structure. Safe to call from any domain: domains
    racing on the first call may each fill, and all of them get the
    one result that won. Structurally equal but physically distinct
    graphs fill independent copies (correct, just unshared).

    The rows live exactly as long as their graph value: no cache
    holds them, so once neither the graph nor a structure built over
    it (a world, an engine) is reachable, the next major collection
    frees them. *)
