(** Finite-size scaling analysis of percolation thresholds.

    On a finite graph the giant-component fraction is a smooth function
    of [p]; as the system grows the curves steepen and — for
    scale-invariant families like the mesh — cross close to the true
    critical point. Estimating [p_c] from the crossings of
    successive-size curves converges much faster than reading a single
    curve's midpoint: this is the standard Binder-crossing trick, used
    by E19 to pin the 2-d mesh threshold near Kesten's 1/2. E19 and E23
    measure the curves on [Experiments.Runner]'s grid; this module only
    reads them. *)

type curve = { size : int; points : (float * float) list }
(** A measured response curve: [(p, value)] pairs, increasing in [p]. *)

val interpolate : curve -> float -> float
(** Piecewise-linear evaluation of a curve; clamps outside its range.
    @raise Invalid_argument if the curve has fewer than two points. *)

val crossing : curve -> curve -> float option
(** [crossing a b] locates a [p] at which the two interpolated curves
    cross (difference changes sign), by scanning the shared grid and
    bisecting within the bracketing interval. [None] if no sign change
    exists. *)

val crossings : curve list -> float list
(** Pairwise crossings of successive curves (sorted by size). *)

val estimate_threshold : curve list -> float option
(** Mean of the successive-size crossings — the finite-size-scaling
    estimate of [p_c]. [None] when no pair crosses. *)
