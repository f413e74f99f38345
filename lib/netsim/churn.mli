(** Seeded link churn — the [churnplan/v1] renewal process.

    A churn plan makes every edge of the simulated network alternate
    between up and down over rounds: an up link fails each round with
    probability [fail], a down link repairs with probability [repair]
    (geometric sojourn times; every link starts up at round 1). The
    trajectory of each link is a {e pure function} of
    [(plan seed, world seed, edge id)], derived through the same
    SplitMix64 discipline as the percolation edge coins, so a churned
    run is exactly as reproducible as a static one: byte-identical at
    any [--jobs] and across a [faultplan/v1] kill + checkpoint
    [--resume] — the engine consults the trajectory, never a shared
    mutable clock.

    Churn layers {e on top of} the percolation world: a message crosses
    a link only when the edge is percolation-open {e and} currently up.
    Protocols run unmodified; they observe churn only through failed
    probes and missing deliveries. *)

type plan
(** The serializable description: fail rate, repair rate, seed. *)

val make : ?seed:int64 -> fail:float -> repair:float -> unit -> plan
(** @raise Invalid_argument unless both rates are finite and in
    [[0, 1]]. [fail = 0.] means no churn; [repair = 0.] means a failed
    link never recovers. *)

val describe : plan -> string
(** The compact spec form, e.g. ["fail=0.05,repair=0.3,seed=7"]. *)

(** {2 churnplan/v1 serialization} *)

val schema : string

val to_json : plan -> Obs.Json.t
val to_string : plan -> string

val of_json : Obs.Json.t -> (plan, string) result
val of_string : string -> (plan, string) result

val load : string -> (plan, string) result
(** Read a [churnplan/v1] JSON file. *)

val spec_syntax : string
(** Human-readable shape of the compact spec, for usage messages. *)

val of_spec : string -> (plan, string) result
(** Parse the compact CLI form [fail=RATE[,repair=RATE][,seed=N]].
    [repair] defaults to the fail rate, [seed] to 0. Errors are
    descriptive, suitable for eager CLI validation. *)

(** {2 Runtime} *)

type state
(** One trajectory cursor per edge for one (plan, world) pairing, in
    an array indexed by edge id: the edge's stream, its toggle count
    and its last two toggle rounds. Mutable only as a cache: answers
    are deterministic and order-independent. *)

val instantiate : plan -> world_seed:int64 -> state
(** Bind the plan to a world. The world seed enters the per-edge
    derivation so the same plan produces independent churn on
    different worlds. *)

val plan : state -> plan

val link_up : state -> edge:int -> round:int -> bool
(** Whether edge [edge] is up at round [round] (rounds start at 1).
    Pure in [(plan seed, world seed, edge, round)], so queries may
    arrive in any order. Cost: amortized O(1) while an edge's rounds do
    not decrease (the engine's pattern), allocating only the edge's
    cursor at its first query; each toggle drawn costs one [log], by
    {!Prng.Sample.geometric_draw} (one [log1p] more in the rare draw
    that lands near an integer); a round before the edge's kept segment
    replays the edge from its seed, in time linear in its toggles up to
    that round. The table grows to the largest edge id asked.
    @raise Invalid_argument naming the edge if [edge] is negative. *)
