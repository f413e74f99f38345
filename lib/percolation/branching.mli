(** Binary Galton–Watson (branching-process) theory.

    The paper's tree results reduce to a binary branching process in
    which each of a node's two children survives independently with
    probability [p]: Lemma 6 (connectivity of the double tree [TT_n] is
    survival with per-child probability [p²]), Theorem 7 (the local
    lower bound), and Theorem 9 (whose [c(p)] is the expected size of a
    failed branch). This module computes the exact quantities those
    proofs use, so experiments and tests can compare Monte-Carlo
    measurements against closed forms.

    Throughout, "binary GW tree with parameter [p]" means: the root is
    alive; each alive node has two potential children, each alive
    independently with probability [p]; offspring mean is [2p] and the
    process is supercritical iff [p > 1/2]. *)

val survival_to_depth : p:float -> int -> float
(** [survival_to_depth ~p k] is the probability that the process
    survives at least [k] generations:
    [q_0 = 1], [q_{i+1} = 1 - (1 - p·q_i)²].
    @raise Invalid_argument if [p] outside [\[0,1\]] or [k < 0]. *)

val survival : p:float -> float
(** [survival ~p] is the extinction-complement [lim_k q_k]: the smallest
    non-negative root of [q = 1 - (1 - p·q)²], namely
    [(2p - 1)/p²] for [p > 1/2] and [0] otherwise. *)

val expected_total_progeny : p:float -> float
(** Expected total number of nodes (root included) of the process when
    it is {e subcritical or critical-conditioned-finite}: for [p < 1/2]
    this is [1 / (1 - 2p)]; for [p >= 1/2] the unconditioned expectation
    is infinite and [infinity] is returned. This is the [c(p)] of
    Theorem 9's proof: a branch that fails to reach depth [n] has
    expected size [O(1)] because the dual (conditioned-on-extinction)
    process is subcritical. *)

val dual_parameter : p:float -> float
(** For a supercritical process ([p > 1/2]), the process conditioned on
    extinction is again a binary GW process (standard duality: the
    conditioned offspring pgf is [f(e·x)/e] with [e] the extinction
    probability, and for [f(x) = (1-p+px)²] this is Binomial(2, p̂)
    with [p̂ = p·√e < 1/2]).
    @raise Invalid_argument if [p <= 1/2]. *)

val expected_failed_branch_size : p:float -> float
(** Theorem 9's [c(p)]: the expected total progeny of the process
    conditioned on extinction — [expected_total_progeny] at the dual
    parameter. Finite for every [p > 1/2].
    @raise Invalid_argument if [p <= 1/2]. *)

val double_tree_connection : p:float -> n:int -> float
(** Lemma 6 quantity: [Pr\[x ~ y\]] in [TT_{n,p}] — survival to depth
    [n] of the binary process with per-child parameter [p²]. *)

val sample_progeny :
  Prng.Stream.t -> p:float -> max_nodes:int -> [ `Extinct of int | `Truncated ]
(** [sample_progeny stream ~p ~max_nodes] simulates one process until
    extinction or until [max_nodes] nodes are generated; used by tests
    to validate the closed forms. *)
