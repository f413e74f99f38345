(** Computational face of the Lower Bound Lemma (Lemma 5).

    For a vertex partition [V = S ∪ S̄] with the target [v ∈ S], if every
    cut edge [e] satisfies [Pr\[(v ~ e) ∈ S\] ≤ η] then a local router
    from [u] needs at least [t] probes except with probability

    [Pr\[X < t\] ≤ (tη + Pr\[(u ~ v) ∈ S\]) / Pr\[u ~ v\]].

    This module evaluates that bound analytically for the worked
    examples of the paper (theta graph, double tree, hypercube ball),
    and decides the event [{(x ~ y) ∈ S}] on one world
    ({!connected_within}). A Monte-Carlo estimate of
    [Pr\[(v ~ e) ∈ S\]] averages that event over independent worlds;
    E17 runs one on [Experiments.Runner]'s grid, and the tests check
    the analytic [η]'s the same way. *)

val bound : t:float -> eta:float -> pr_path_in_s:float -> pr_connected:float -> float
(** The right-hand side of Lemma 5's inequality, clamped to [\[0,1\]].
    @raise Invalid_argument if [pr_connected <= 0]. *)

val eta_theta : p:float -> float
(** Exact [η] for the theta graph with [S = {v} ∪ middles]: a cut edge
    [(u, m_i)] reaches [v] within [S] iff edge [(m_i, v)] is open, so
    [η = p]. *)

val eta_double_tree : p:float -> n:int -> float
(** Exact [η] for [TT_n] with [S] = the second tree: a cut (leaf) edge
    reaches the far root within [S] only along its unique branch, so
    [η = pⁿ] (Theorem 7). *)

val eta_hypercube : alpha:float -> beta:float -> n:int -> float
(** The Theorem 3(i) path-counting bound for [S] = a Hamming ball of
    radius [l = n^β] around [v] under [p = n^{-α}]:
    [η = (lp)^l / (1 - n l² p²)], valid (and finite) when
    [n^{2β+1-2α} < 1], i.e. [β < α - 1/2].
    @raise Invalid_argument when the series does not converge. *)

val connected_within :
  Percolation.World.t -> member:(int -> bool) -> int -> int -> bool
(** [connected_within w ~member x y] — is there an open path from [x] to
    [y] using only vertices satisfying [member]? (The event
    [{(x ~ y) ∈ S}] of the paper.) For [{(v ~ e) ∈ S}] with a cut edge
    [e], pass [e]'s endpoint inside [S]: only paths inside [S] count,
    so [e]'s own state is irrelevant. *)
