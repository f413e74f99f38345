(** Ordinary least-squares fits.

    The experiments validate asymptotic claims by fitting scaling laws:
    a power law [y = C·x^b] becomes the linear fit [log y = log C + b·log x],
    and an exponential law [y = C·r^x] becomes [log y = log C + x·log r].
    The fitted slope is the measured exponent / rate compared against the
    paper's claim. *)

type fit = {
  slope : float;
  intercept : float;
  r_squared : float;  (** Coefficient of determination of the fit. *)
  n : int;  (** Number of points used. *)
}

val linear : (float * float) list -> fit
(** [linear points] is the least-squares line through [points].
    @raise Invalid_argument on fewer than two points or zero x-variance. *)

val power_law : (float * float) list -> fit
(** [power_law points] fits [y = C·x^slope] by linear regression in
    log–log space; [intercept] is [log C]. Points with non-positive
    coordinates are rejected.
    @raise Invalid_argument if any coordinate is non-positive. *)

val exponential : (float * float) list -> fit
(** [exponential points] fits [y = C·exp(slope·x)] by regression of
    [log y] on [x].
    @raise Invalid_argument if any [y] is non-positive. *)

val predict : fit -> float -> float
(** [predict fit x] evaluates the fitted {e linear} model
    [slope·x + intercept]. For power-law and exponential fits apply it in
    the transformed space. *)

type slope_ci = {
  fit : fit;  (** Full-sample fit the interval is centred on. *)
  lo : float;  (** Lower percentile bound on the slope. *)
  hi : float;  (** Upper percentile bound on the slope. *)
  replicates : int;
  confidence : float;
}
(** Percentile-bootstrap confidence interval for a fitted slope. For
    power-law fits the slope is the scaling exponent, for exponential fits
    the log growth rate, so the interval bounds the quantity the paper's
    claims are stated in. *)

val linear_ci :
  Prng.Stream.t ->
  ?replicates:int ->
  ?confidence:float ->
  (float * float) list ->
  slope_ci
(** [linear_ci stream points] is a case-resampling percentile bootstrap
    interval for the least-squares slope: [replicates] (default 1000)
    resamples of the point set, refit each, percentile band at [confidence]
    (default 0.95). Degenerate resamples with zero x-variance contribute the
    full-sample slope, so the result is total and deterministic in
    [stream].
    @raise Invalid_argument on fewer than two points, [replicates < 1] or
    [confidence] outside (0,1). *)

val power_law_ci :
  Prng.Stream.t ->
  ?replicates:int ->
  ?confidence:float ->
  (float * float) list ->
  slope_ci
(** Bootstrap interval for the power-law exponent (resampling in log–log
    space, equivalent to resampling raw pairs and refitting).
    @raise Invalid_argument if any coordinate is non-positive. *)

val exponential_ci :
  Prng.Stream.t ->
  ?replicates:int ->
  ?confidence:float ->
  (float * float) list ->
  slope_ci
(** Bootstrap interval for the exponential rate [slope] of
    [y = C·exp(slope·x)].
    @raise Invalid_argument if any [y] is non-positive. *)

val pp : Format.formatter -> fit -> unit
(** Prints ["slope=… intercept=… R²=… (n=…)"]. *)
