(** Hierarchical profiling spans — the non-deterministic half of the
    observability layer, kept strictly at the reporting layer.

    Wall-clock measurements can never be byte-reproducible, so they
    live apart from {!Metrics}: each domain keeps its own span stack
    and tree of per-path nodes (no cross-domain contention on the hot
    path) and {!tree}/{!report} fold the domains together on demand.
    Enabling timing changes {e no} computed result — only how long
    things take to compute (two clock reads per span).

    Attribution is by {e stack path}, not by flat name: a span entered
    while another is open becomes that span's child, its wall time is
    part of the parent's [total] but subtracted from the parent's
    [self]. Summing [self] over the whole tree therefore reproduces
    measured wall time exactly once — the flat-table double count the
    old name-keyed implementation documented is gone. Recursive spans
    (same name nested under itself) appear as nested tree nodes; the
    flat {!report} counts such a name's total only at its outermost
    occurrence.

    When disabled (the default) {!span} is the guarded thunk call and
    nothing else. *)

val on : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val enabled : bool Atomic.t
(** The switch behind {!on}, exposed so per-edge hot loops can read it
    with an inlined [Atomic.get] instead of a cross-module call. Treat
    as read-only: always arm through {!enable}/{!disable}. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], attributing its wall time to the tree node
    for [name] under the current stack path when timing is enabled.
    Exception-safe. Stacks deeper than an internal cap (64) stop
    growing the tree — further spans fold into the innermost node. *)

(** {2 Folded views}

    All views fold the per-domain trees by name path. They read the
    live trees racily — safe, but take them when worker domains are
    quiescent for exact numbers. *)

type tree = {
  span_name : string;
  calls : int;
  total : float;  (** inclusive wall seconds (children counted in) *)
  self : float;  (** exclusive wall seconds (children subtracted) *)
  children : tree list;
}

val tree : unit -> tree list
(** The merged span tree since the last {!reset}; siblings sorted by
    name for stable output. *)

type entry = { name : string; count : int; total_s : float; self_s : float }

val report : unit -> entry list
(** Flat per-name summary of {!tree}, sorted by descending total time.
    [self_s] columns sum to measured wall time; [total_s] is inclusive
    and counts recursive occurrences once. *)

val reset : unit -> unit

val profile_json : unit -> string
(** The [profile/v1] document: a single JSON object
    [{"schema": "profile/v1", "spans": [{name, count, total_s, self_s,
    children: [...]}, ...]}] mirroring {!tree}. Ends in a newline. *)

val paths : tree list -> (string * tree) list
(** Every node in pre-order with its stack path ["root;child;leaf"].
    Semicolons in span names are rewritten to [':'] to keep paths
    unambiguous. *)

val folded : tree list -> string list
(** Folded-stack lines ["root;child;leaf <self-us>"] for standard
    flamegraph tooling: one line per {!paths} entry with nonzero self
    time, value in integer microseconds. Pure, so [faultroute obs
    folded] renders a parsed [profile/v1] file with it. *)
