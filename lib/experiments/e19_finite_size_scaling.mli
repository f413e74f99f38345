(** Experiment E19 — see the module implementation header and
    DESIGN.md's experiment index for the claim being reproduced. *)

val id : string
(** Catalog id, e.g. "E1". *)

val title : string
(** One-line title shown by the CLI and catalog. *)

val claim : string
(** The paper statement this experiment measures. *)

val giant_curves :
  name:string ->
  Prng.Stream.t ->
  world_at:(Topology.Graph.t -> seed:int64 -> float -> Percolation.World.t) ->
  graphs:(int * Topology.Graph.t) list ->
  ps:float list ->
  trials:int ->
  Percolation.Scaling.curve list
(** One mean giant-fraction curve per [(size, graph)], measured as one
    {!Runner.grid} under [name]. Trial [t] (from 0) of size [m] calls
    [world_at graph ~seed] once, seed [Coin.derive (seed (split stream
    m)) t], and takes a census of its world at each [p]. E19 passes
    bond worlds [Percolation.World.create graph ~p ~seed], E23
    site-percolation worlds at that seed: worlds at one seed nest along
    [p], so each trial's curve is non-decreasing. *)

val run : ?quick:bool -> Prng.Stream.t -> Report.t
(** [run stream] executes the experiment at paper scale; [~quick:true]
    shrinks sizes and trial counts for smoke tests and benches. *)
