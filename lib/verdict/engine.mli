(** The verdict engine: claims vs baseline, with a pass/drift/fail table.

    Semantics:
    - {b Fail}: the claim's declared band is violated — the paper-facing
      assertion did not survive the run. Bounds live in code, so a Fail
      means either a real regression or a deliberately perturbed band.
    - {b Drift}: the band holds, but the observed values deviate from the
      committed baseline beyond its tolerance — a refactor moved a
      measured number. Baselines are per (mode, seed); drift is the
      signal to inspect and, if intended, [--update] the baseline.
    - {b New}: the band holds and the claim has no baseline entry yet.
    - {b Pass}: band holds, values match the baseline (or no baseline
      was supplied at all).

    The rendered table, JSON ([verdict/v1]) and exit code are pure in
    (claims, baseline) — no timestamps — so a (mode, seed) verdict is
    byte-identical across [--jobs] and reruns. *)

val schema : string
(** ["verdict/v1"]. *)

type status = Pass | Drift | Fail | New

type entry = {
  claim : Experiments.Claim.t;
  status : status;
  baseline_values : float list option;
  deviation : float;
      (** Max per-value deviation vs baseline: relative for magnitudes
          above 1, absolute below (fractions near 0 must not blow up the
          denominator); [infinity] on arity mismatch. 0 without a
          baseline entry. *)
}

type t = {
  mode : string;
  seed : int64;
  tolerance : float;
  entries : entry list;  (** In the order the claims were supplied. *)
  missing : string list;
      (** Baseline ids the run did not produce (e.g. a full-only claim
          checked against a quick run) — counted as drift. *)
}

val evaluate :
  mode:string -> seed:int64 -> ?baseline:Baseline.t -> Experiments.Claim.t list -> t
(** Tolerance is taken from the baseline ([1e-9] when absent). *)

val exit_code : t -> int
(** [2] if any claim fails, else [4] if anything drifted (including
    baseline ids missing from the run), else [0]. *)

val count : status -> t -> int

val baseline : ?tolerance:float -> t -> Baseline.t
(** The baseline this run would commit ([check --update]). *)

val render : t -> string
(** Human table plus a one-line summary (trailing newline). *)

val to_json : t -> Obs.Json.t
(** [verdict/v1]: schema, mode, seed, tolerance, exit code, status
    counts, per-claim entries (embedding [claim/v1]), missing ids. *)
