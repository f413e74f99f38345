(** Bench snapshot history: parse [bench_percolation/v1|v2|v3] JSON
    and the append-only JSONL trail of them. The history is a record:
    no threshold turns a ratio into a verdict, since host speed moves
    every timing ([faultroute obs diff] prints the ratios).

    The cached-path timings ([*.cached_ns]), the end-to-end
    [trial_run.ns] and the churn stepper's [churn_step.ns] are the
    tracked metrics; lazy-path numbers exist only to compute speedups
    and are deliberately not harvested (they measure the machinery we
    moved away from). Older v3 lines also carry the since-deleted
    bitset reveal engine's [reveal_bfs.bitset_ns], harvested when
    present. *)

type snapshot = {
  mode : string;  (** ["quick"] or ["full"]. *)
  commit : string option;  (** v2 provenance; [None] for v1 files. *)
  timestamp : string option;  (** ISO 8601 UTC; [None] for v1. *)
  metrics : (string * float) list;
      (** Keys like ["mesh2(m=40)/reveal_bfs.cached_ns"] and
          ["mesh2(m=40)/trial_run.ns"]; values in nanoseconds. *)
}

val of_json : Json.t -> (snapshot, string) result
(** Accepts [bench_percolation/v1] (no provenance fields), [/v2] and
    [/v3]. Kernel rows a topology lacks are skipped, but each topology
    must carry at least one tracked timing. *)

val parse_lines : string list -> (snapshot list, string) result
(** Parse a JSONL history (one snapshot per line, blanks skipped),
    oldest first — the order the lines appear in. *)

val trailing_baseline : mode:string -> snapshot list -> snapshot option
(** The most recent snapshot of the same mode, i.e. the last matching
    element of an oldest-first list. *)
