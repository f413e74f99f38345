(** Edge connectivity and minimum edge cuts (Edmonds–Karp, unit
    capacities).

    The worst-case fault model (paper, Section 1) is the natural foil to
    the random model: an adversary that knows the topology deletes the
    few edges a minimum cut identifies, while random faults must hit the
    same cut by luck. This module computes [s–t] edge connectivity and
    extracts a minimum cut on any implicit {!Graph.t} small enough to
    enumerate. It searches the graph's shared {!Csr} rows
    ({!Csr.of_graph}), so repeated cuts on one graph build them once. *)

val max_flow : Graph.t -> source:int -> sink:int -> int
(** [max_flow g ~source ~sink] is the maximum number of edge-disjoint
    paths (= edge connectivity of the pair, by Menger).
    @raise Invalid_argument if [source = sink] or out of range. *)

val min_cut : Graph.t -> source:int -> sink:int -> (int * int) list
(** [min_cut g ~source ~sink] is a minimum set of edges whose removal
    disconnects the pair (each pair [(u, v)] with [u] on the source
    side). Its length equals [max_flow]. *)
