(** Experiment E25 — fault geometry at equal budget, and the
    degradation sweep it shares with E22. *)

val id : string
val title : string
val claim : string

type degradation = {
  giant : Stats.Summary.t;
      (** Giant-component fraction of each faulted world; empty
          without the census. *)
  survived : int;  (** Trials whose pair stayed connected. *)
  measured : int;
      (** Trials measured: the requested count unless a chunk was
          quarantined. *)
  probes : Stats.Summary.t;
      (** Greedy probes of the routes found on surviving worlds. *)
}

val sweep :
  census:bool ->
  Prng.Stream.t ->
  Topology.Graph.t ->
  source:int ->
  target:int ->
  budgets:int list ->
  models:Percolation.Scenario.model list ->
  trials:int ->
  degradation array array
(** [sweep ~census stream graph ~source ~target ~budgets ~models
    ~trials] deletes each budget's worth of edges under each model from
    a fault-free world, [trials] times, and asks whether [source] still
    reaches [target] and what greedy routing costs if so. Entry
    [.(b).(m)] is budget [b] under model [m]. Trial [t] (from 1) of
    that cell builds its world from [Coin.derive (seed s) t] and draws
    its faults from [split s t], where [s] is
    [split stream (10 * b + m)].

    The whole grid is one {!Runner.grid}, cell [b * |models| + m],
    named by the graph, the pair, the budgets, the models and
    [census], so it runs on [--jobs] domains, takes injected faults and
    resumes from a checkpoint; a quarantined chunk's trials are left
    out of [measured]. With [census] each faulted world also gets a
    cluster census for [giant]. Each model's
    {!Percolation.Scenario.sampler} is built once, before the grid.
    @raise Invalid_argument with more than 10 models (their streams
    would collide) or a model {!Percolation.Scenario.sampler} rejects. *)

val run : ?quick:bool -> Prng.Stream.t -> Report.t
(** [run stream] executes the experiment; [~quick:true] shrinks it. *)
