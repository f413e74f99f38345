(** Flat compressed-sparse-row adjacency of a graph.

    The implicit {!Graph.t} interface computes adjacency on demand — a
    fresh array per [neighbors] call, a closure call per [edge_id].
    That is the right trade for astronomically large graphs, but for
    the size-gated graphs percolation caches cover, the hot loops
    (reveal BFS, probe sweeps, coin filling) want plain array reads.
    This module materialises adjacency once per graph: vertex [v]'s
    neighbors occupy slots [xadj.(v) .. xadj.(v+1) - 1] of [targets],
    with the canonical edge id of each slot in [edge_ids].

    Only for graphs small enough to enumerate (cost and memory are
    O(Σ degree)); percolation gates callers by
    [Percolation.World.cache_gate]. *)

type t = {
  xadj : int array;  (** Offsets; length [vertex_count + 1]. *)
  targets : int array;  (** Neighbor vertex per directed slot. *)
  edge_ids : int array;  (** Canonical edge id per directed slot. *)
}

val build : Graph.t -> t
(** Materialise the adjacency of a graph (one [neighbors] and one
    [edge_id] evaluation per directed edge). *)

val of_graph : Graph.t -> t
(** Like {!build}, but memoised on the graph's {e physical identity}
    and safe to call from any domain: every world over the same graph
    value shares one structure. Structurally equal but physically
    distinct graphs build independent copies (correct, just unshared).

    The memo holds its last 8 graphs and their structures by strong
    references, in a process-global list: a graph no caller can reach
    any more stays alive, with its CSR (O(Σ degree) words), until 8
    newer graphs push it out. *)
