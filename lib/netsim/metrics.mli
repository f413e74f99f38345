(** Global cost accounting of a simulation run.

    Six plain integer counters, one field each, ticked by the engine on
    every round, send, delivery, probe and churn block. They are not a
    view over an {!Obs.Metrics} registry: {!snapshot} builds one on
    demand under the names [netsim.rounds], [netsim.messages_sent],
    [netsim.messages_delivered], [netsim.raw_probes],
    [netsim.distinct_probes] and [netsim.churn.blocked], leaving out
    every counter still at zero, in the mergeable form the trial engine
    uses — [faultroute simulate --metrics-out] writes them alongside
    everything else. The accessors below are live reads. *)

type t

val create : unit -> t

(** {2 Engine-side increments} *)

val tick_round : t -> unit
val tick_sent : t -> unit
val tick_delivered : t -> unit
val tick_raw_probe : t -> unit
val tick_distinct_probe : t -> unit
val tick_churn_blocked : t -> unit

(** {2 Views} *)

val rounds : t -> int
(** Rounds executed so far. *)

val messages_sent : t -> int
(** All [send] calls. *)

val messages_delivered : t -> int
(** Sends whose link was open (or drained through a capacity-limited
    link). *)

val raw_probes : t -> int
(** All [probe] calls. *)

val distinct_probes : t -> int
(** Distinct edges probed. *)

val churn_blocked : t -> int
(** Sends suppressed because the link was percolation-open but churned
    down at that round ([netsim.churn.blocked]). Capacity-queue
    backlogs are delayed, not dropped, so drains never tick this.
    Zero on unchurned runs. *)

val snapshot : t -> Obs.Metrics.snapshot
(** The non-zero counters as a pure mergeable snapshot (the [netsim.*]
    namespace); a counter never ticked is absent, not 0. *)

val delivery_rate : t -> float
(** [messages_delivered / messages_sent]; [nan] when nothing was sent. *)

val pp : Format.formatter -> t -> unit
