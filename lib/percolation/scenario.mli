(** Fault sets at exact edge budget: the one sampler for both of the
    paper's fault models and their clustered variants.

    A model describes fault {e geometry}: how [k] dead edges are
    arranged. [Random] is the i.i.d. model; [Ball], [Infection] and
    [Blast] cluster the faults (the Bagchi et al. comparison from
    ROADMAP O3); [Around] and [Min_cut] are the worst-case adversary of
    Section 1, which knows the topology and aims at one vertex or one
    source–target pair. All models answer with {e exactly}
    [min k |E|] distinct edges, so degradation curves compare them at
    strictly equal budget, and every set overlays onto a world through
    {!World.remove_edges} — oracles, reveals, caches, claims and traces
    work unchanged.

    Sampling is a pure function of the stream, the graph and the
    model, so scenario worlds inherit the engine's byte-reproducible
    determinism at any [--jobs]. A {!sampler} is built once per graph
    and model: it validates the model and prepares what every draw
    would otherwise rebuild (the edge array and a min-cut model's
    cut), so a sweep drawing many fault sets pays for them once. *)

type model =
  | Random  (** i.i.d. faults: a uniform [k]-subset of the edges. *)
  | Ball of { centers : int }
      (** BFS edge balls grown round-robin around [centers] random
          seed vertices — disjoint dead neighbourhoods. *)
  | Infection
      (** Eden growth: one seed edge spreads to a uniformly random
          frontier edge per step — a single connected fault blob. *)
  | Blast of { decay : float }
      (** One epicenter; an edge at BFS distance [d] dies with weight
          proportional to [decay^d] (sampled without replacement) —
          a dense core with a fuzzy boundary. *)
  | Around of { vertex : int }
      (** Edges incident to [vertex], then to its neighbours, breadth
          first — an attacker that only sees the victim's vicinity. *)
  | Min_cut of { source : int; target : int }
      (** The first [k] edges of one minimum [source]–[target] cut
          ({!Topology.Mincut.min_cut}) — the optimal disconnection
          attack. A budget past the cut size tops up with uniform
          edges once the pair is already cut. *)

val model_name : model -> string
(** Short label naming the model and its parameters, e.g. ["ball:3"],
    ["blast:0.5"], ["min-cut:0-63"]; decays print round-trip exact, so
    distinct models get distinct names. *)

val sampler :
  Topology.Graph.t -> model -> Prng.Stream.t -> budget:int -> (int * int) list
(** [sampler graph model] validates [model] and prepares, once, what
    every draw reads that depends only on [graph] and [model]: the edge
    array (in {!Topology.Graph.edge_list} order, enumerated by the
    padding and by the infection and blast draws) and, for [Min_cut],
    the cut. The prepared sampler is immutable and may be shared across
    domains.

    [sampler graph model stream ~budget] draws one fault set, one
    [scenario.sample] span: exactly [min budget (edge_count graph)]
    distinct edges. Models that exhaust their geometry early (a ball
    covering a small component, a blast in a disconnected graph, a min
    cut smaller than the budget) are padded with uniform random edges
    so budgets always match.
    @raise Invalid_argument at [sampler graph model] when [model] is
    malformed (ball needs [centers >= 1], blast needs [decay] in
    [(0, 1]], around and min-cut need vertices of [graph], min-cut
    needs [source <> target]), and at a draw on a negative budget. *)

val pad_to_budget :
  Prng.Stream.t ->
  Topology.Graph.t ->
  budget:int ->
  (int * int) list ->
  (int * int) list
(** Normalize an externally chosen edge set to the exact budget:
    dedupe (by edge id, first occurrence wins), truncate past the
    budget, and top up with uniform random unchosen edges — the last
    step of every {!sampler} draw. *)
