(** Streaming descriptive statistics (Welford's online algorithm).

    Numerically stable single-pass accumulation of count, mean, variance
    and extrema; merging two summaries is exact, enabling parallel or
    chunked accumulation. *)

type t
(** An accumulating summary. The empty summary has count 0. *)

val empty : t
(** The summary of no observations. *)

val add : t -> float -> t
(** [add t x] is [t] with observation [x] included. *)

val merge : t -> t -> t
(** [merge a b] summarises the union of the observations of [a] and [b]
    (Chan et al. pairwise update). *)

val of_array : float array -> t
(** [of_array xs] summarises all elements of [xs]. *)

val count : t -> int
(** Number of observations. *)

val mean : t -> float
(** Arithmetic mean; [nan] if empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] if fewer than two observations. *)

val min : t -> float
(** Smallest observation; [nan] if empty. *)

val max : t -> float
(** Largest observation; [nan] if empty. *)

val total : t -> float
(** Sum of observations ([mean *. count], exact up to float rounding). *)

val mean_ci95 : t -> float * float
(** [mean_ci95 t] is a normal-approximation 95% confidence interval for
    the mean, [(mean - 1.96 se, mean + 1.96 se)]. With fewer than two
    observations both bounds are [nan] (documented, tested); use
    {!mean_ci95_opt} to branch instead of testing for nan. *)

val mean_ci95_opt : t -> (float * float) option
(** {!mean_ci95} as an option: [None] with fewer than two
    observations (no finite interval exists). *)

val pp : Format.formatter -> t -> unit
(** Prints ["n=… mean=… sd=… min=… max=…"], or ["n=0 (empty)"] for the
    empty summary — never a row of nans. *)
