(** Implicit undirected simple graphs.

    Every topology in this project is exposed through this one record so
    that percolation oracles and routers are written once. Graphs are
    {e implicit}: vertices are integers in [\[0, vertex_count)],
    adjacency is computed on demand, and nothing proportional to the
    graph size needs to be materialised (essential for the hypercube,
    whose instances have up to 2{^30} vertices).

    Each undirected edge has a {e canonical id}, a unique integer in
    [\[0, edge_id_bound)]. Edge ids are what percolation coins hash, so
    injectivity is a correctness requirement (tested by property tests
    for every topology). *)

exception Not_an_edge of int * int
(** Raised by [edge_id u v] when [u] and [v] are not adjacent (or equal). *)

type csr = { xadj : int array; targets : int array; edge_ids : int array }
(** A graph's adjacency as flat rows; {!Csr} documents the layout. *)

type csr_cell = private {
  fill : (unit -> csr) option;
      (** The topology's native fill, computed from its own arithmetic;
          [None] means the generic fill from [neighbors] and [edge_id]
          ({!Csr.build}). *)
  rows : csr option Atomic.t;  (** Empty until the first {!Csr.of_graph}. *)
}
(** A graph's once-cell for its {!csr}, read only through
    {!Csr.of_graph}. *)

type t = {
  name : string;  (** Human-readable description, e.g. ["hypercube(n=14)"]. *)
  vertex_count : int;
  degree : int -> int;  (** Degree of a vertex. *)
  neighbors : int -> int array;
      (** Adjacent vertices. {b Freshness contract}: every call returns
          a {e newly allocated} array that the graph does not retain or
          alias — two consecutive calls return physically distinct,
          structurally equal arrays. Callers may therefore keep or
          mutate the result freely ({!Percolation.World}'s lazy path
          filters it in place). Every topology, in and out of the
          registry, must honour this; a qcheck test over the full
          registry enforces it. *)
  edge_id : int -> int -> int;
      (** Canonical id of the edge [{u,v}]; symmetric in its arguments.
          @raise Not_an_edge if the pair is not an edge. *)
  edge_id_bound : int;  (** Exclusive upper bound on edge ids. *)
  distance : (int -> int -> int) option;
      (** Graph metric of the {e fault-free} topology when cheaply
          computable (Hamming for the hypercube, L1 for the mesh). *)
  csr : csr_cell;
      (** The graph's own flat adjacency, filled on first use by
          {!Csr.of_graph} and kept for as long as the graph value
          lives. Every constructor makes a fresh {!csr_cell}, so a
          record copied with [{ g with ... }] shares the rows of [g]:
          change no adjacency field that way. *)
}

val csr_cell : ?fill:(unit -> csr) -> unit -> csr_cell
(** [csr_cell ()] is an empty cell that {!Csr.of_graph} fills
    generically; [csr_cell ~fill ()] fills it with [fill ()], which
    must return exactly the rows of the generic fill, slot for slot. *)

val check_vertex : t -> int -> unit
(** @raise Invalid_argument if the vertex is out of range. *)

val is_edge : t -> int -> int -> bool
(** [is_edge g u v] tests adjacency via [edge_id]. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per undirected edge (with
    [u < v]). Cost O(Σ degree); only call on graphs small enough to
    enumerate. *)

val edge_count : t -> int
(** Number of undirected edges, by enumeration (same caveat as
    {!iter_edges}). *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** Edge fold; same enumeration caveat. *)

val edge_list : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v]; same caveat. *)

val bfs_distance : t -> int -> int -> int option
(** [bfs_distance g u v] is the fault-free graph distance by breadth-first
    search — a reference implementation for testing the [distance] field.
    [None] if unreachable. Only for small graphs. *)
