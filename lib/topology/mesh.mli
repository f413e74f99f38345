(** The [d]-dimensional mesh [M^d] with side [m] ([m^d] vertices).

    Vertices are points of [{0..m-1}^d]; two points are adjacent iff they
    differ by 1 in exactly one coordinate. Distance is L1. This is the
    graph of Theorem 4: for any [p > p_c^d] a local router finds a path
    between vertices at distance [n] in expected [O(n)] probes. *)

val graph : d:int -> m:int -> Graph.t
(** [graph ~d ~m] is the mesh with [m^d] vertices.
    @raise Invalid_argument if [d < 1], [m < 2] or [m^d] overflows. *)

val side : Graph.t -> d:int -> int
(** Recovers the side length [m] of a [graph ~d ~m]. *)

val coords : d:int -> m:int -> int -> int array
(** [coords ~d ~m v] is the coordinate vector of vertex [v]
    (least-significant coordinate first). *)

val index : m:int -> int array -> int
(** [index ~m c] is the vertex with coordinate vector [c]. Inverse of
    {!coords}. *)

val next_coords : m:int -> int array -> unit
(** [next_coords ~m c] turns [c], the coordinates of vertex [v], into
    those of [v + 1], in place (an odometer, axis 0 fastest); from the
    last vertex it wraps to all zeros. *)

val l1_distance : d:int -> m:int -> int -> int -> int
(** L1 distance between two vertex indices. *)

val fixed_path : d:int -> m:int -> int -> int -> int list
(** [fixed_path ~d ~m u v] is the canonical monotone shortest path that
    corrects coordinates axis by axis (axis 0 first) — the backbone of
    the Theorem 4 path-following router. Includes both endpoints. *)

val centre : d:int -> m:int -> int
(** The vertex at the centre of the cube (coordinate [m/2] on each axis). *)
