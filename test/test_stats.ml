(* Tests for the stats library. *)

let feq = Alcotest.(check (float 1e-9))
let feq_loose = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

let test_summary_empty () =
  let s = Stats.Summary.empty in
  Alcotest.(check int) "count" 0 (Stats.Summary.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s))

let test_summary_basic () =
  let s = Stats.Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  feq "mean" 2.5 (Stats.Summary.mean s);
  feq "variance" (5.0 /. 3.0) (Stats.Summary.variance s);
  feq "min" 1.0 (Stats.Summary.min s);
  feq "max" 4.0 (Stats.Summary.max s);
  feq_loose "total" 10.0 (Stats.Summary.total s)

let test_summary_single () =
  let s = Stats.Summary.add Stats.Summary.empty 7.0 in
  feq "mean" 7.0 (Stats.Summary.mean s);
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Stats.Summary.variance s))

let test_summary_merge_equals_of_array () =
  let a = Stats.Summary.of_array [| 1.0; 5.0; 2.0 |] in
  let b = Stats.Summary.of_array [| 10.0; -3.0 |] in
  let merged = Stats.Summary.merge a b in
  let direct = Stats.Summary.of_array [| 1.0; 5.0; 2.0; 10.0; -3.0 |] in
  feq "mean" (Stats.Summary.mean direct) (Stats.Summary.mean merged);
  feq_loose "variance" (Stats.Summary.variance direct) (Stats.Summary.variance merged);
  feq "min" (Stats.Summary.min direct) (Stats.Summary.min merged);
  feq "max" (Stats.Summary.max direct) (Stats.Summary.max merged)

let test_summary_merge_empty () =
  let a = Stats.Summary.of_array [| 1.0; 2.0 |] in
  let merged = Stats.Summary.merge a Stats.Summary.empty in
  feq "mean unchanged" (Stats.Summary.mean a) (Stats.Summary.mean merged);
  let merged' = Stats.Summary.merge Stats.Summary.empty a in
  feq "mean unchanged'" (Stats.Summary.mean a) (Stats.Summary.mean merged')

let test_summary_ci () =
  let s = Stats.Summary.of_array (Array.init 100 (fun i -> float_of_int (i mod 10))) in
  let lo, hi = Stats.Summary.mean_ci95 s in
  let mean = Stats.Summary.mean s in
  Alcotest.(check bool) "contains mean" true (lo <= mean && mean <= hi)

let test_summary_numerical_stability () =
  (* Large offset: naive sum-of-squares would lose precision. *)
  let offset = 1.0e9 in
  let s = Stats.Summary.of_array [| offset +. 1.0; offset +. 2.0; offset +. 3.0 |] in
  feq_loose "variance" 1.0 (Stats.Summary.variance s)

(* ------------------------------------------------------------------ *)
(* Quantile                                                            *)

let test_quantile_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  feq "median" 3.0 (Stats.Quantile.median xs);
  feq "q0" 1.0 (Stats.Quantile.quantile xs 0.0);
  feq "q1" 5.0 (Stats.Quantile.quantile xs 1.0);
  feq "q25" 2.0 (Stats.Quantile.quantile xs 0.25)

let test_quantile_interpolation () =
  let xs = [| 0.0; 10.0 |] in
  feq "midpoint" 5.0 (Stats.Quantile.median xs);
  feq "q30" 3.0 (Stats.Quantile.quantile xs 0.3)

let test_quantile_unsorted_input () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  feq "median" 3.0 (Stats.Quantile.median xs)

let test_quantile_single () = feq "single" 42.0 (Stats.Quantile.median [| 42.0 |])

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted: empty array")
    (fun () -> ignore (Stats.Quantile.median [||]));
  Alcotest.check_raises "bad q" (Invalid_argument "Quantile.of_sorted: q outside [0,1]")
    (fun () -> ignore (Stats.Quantile.quantile [| 1.0 |] 1.5))

let test_iqr () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  feq "iqr" 50.0 (Stats.Quantile.iqr xs)

(* ------------------------------------------------------------------ *)
(* Proportion                                                          *)

let test_proportion_estimate () =
  let p = Stats.Proportion.make ~successes:30 ~trials:100 in
  feq "estimate" 0.3 (Stats.Proportion.estimate p)

let test_proportion_wilson_contains_estimate () =
  let p = Stats.Proportion.make ~successes:30 ~trials:100 in
  let lo, hi = Stats.Proportion.wilson_ci p in
  Alcotest.(check bool) "contains" true (lo < 0.3 && 0.3 < hi);
  Alcotest.(check bool) "proper interval" true (lo >= 0.0 && hi <= 1.0)

let test_proportion_wilson_extremes () =
  let zero = Stats.Proportion.make ~successes:0 ~trials:20 in
  let lo, hi = Stats.Proportion.wilson_ci zero in
  feq "lo at 0" 0.0 lo;
  Alcotest.(check bool) "hi positive" true (hi > 0.0 && hi < 0.3);
  let all = Stats.Proportion.make ~successes:20 ~trials:20 in
  let lo, hi = Stats.Proportion.wilson_ci all in
  feq "hi at 1" 1.0 hi;
  Alcotest.(check bool) "lo below 1" true (lo < 1.0 && lo > 0.7)

let test_proportion_wilson_known () =
  (* 50/100 at z=1.96: Wilson interval ~ [0.404, 0.596]. *)
  let p = Stats.Proportion.make ~successes:50 ~trials:100 in
  let lo, hi = Stats.Proportion.wilson_ci p in
  Alcotest.(check (float 0.005)) "lo" 0.404 lo;
  Alcotest.(check (float 0.005)) "hi" 0.596 hi

let test_proportion_within () =
  let p = Stats.Proportion.make ~successes:50 ~trials:100 in
  Alcotest.(check bool) "within" true (Stats.Proportion.within p ~lo:0.45 ~hi:0.55);
  Alcotest.(check bool) "not within" false (Stats.Proportion.within p ~lo:0.9 ~hi:1.0)

let test_proportion_invalid () =
  Alcotest.check_raises "bad"
    (Invalid_argument "Proportion.make: successes outside [0, trials]") (fun () ->
      ignore (Stats.Proportion.make ~successes:5 ~trials:3))

let test_proportion_merge_pools () =
  (* The parallel engine merges per-domain proportions; pooling must be
     exact, not approximate. *)
  let a = Stats.Proportion.make ~successes:3 ~trials:10 in
  let b = Stats.Proportion.make ~successes:7 ~trials:12 in
  let merged = Stats.Proportion.merge a b in
  Alcotest.(check int) "successes" 10 merged.Stats.Proportion.successes;
  Alcotest.(check int) "trials" 22 merged.Stats.Proportion.trials;
  let empty = Stats.Proportion.make ~successes:0 ~trials:0 in
  Alcotest.(check bool) "left identity" true (Stats.Proportion.merge empty a = a);
  Alcotest.(check bool) "right identity" true (Stats.Proportion.merge a empty = a)

(* ------------------------------------------------------------------ *)
(* Regression                                                          *)

let test_regression_exact_line () =
  let points = [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0); (4.0, 9.0) ] in
  let fit = Stats.Regression.linear points in
  feq "slope" 2.0 fit.Stats.Regression.slope;
  feq "intercept" 1.0 fit.Stats.Regression.intercept;
  feq "r2" 1.0 fit.Stats.Regression.r_squared

let test_regression_power_law () =
  (* y = 3 x^2.5 *)
  let points =
    List.map (fun x -> (x, 3.0 *. (x ** 2.5))) [ 1.0; 2.0; 4.0; 8.0; 16.0 ]
  in
  let fit = Stats.Regression.power_law points in
  feq_loose "exponent" 2.5 fit.Stats.Regression.slope;
  feq_loose "log C" (log 3.0) fit.Stats.Regression.intercept

let test_regression_exponential () =
  (* y = 2 e^(0.7 x) *)
  let points = List.map (fun x -> (x, 2.0 *. exp (0.7 *. x))) [ 0.0; 1.0; 2.0; 3.0 ] in
  let fit = Stats.Regression.exponential points in
  feq_loose "rate" 0.7 fit.Stats.Regression.slope;
  feq_loose "log C" (log 2.0) fit.Stats.Regression.intercept

let test_regression_noisy_r2 () =
  let points = [ (1.0, 2.1); (2.0, 3.9); (3.0, 6.2); (4.0, 7.8) ] in
  let fit = Stats.Regression.linear points in
  Alcotest.(check bool) "good fit" true (fit.Stats.Regression.r_squared > 0.99);
  Alcotest.(check bool) "slope near 2" true
    (fit.Stats.Regression.slope > 1.8 && fit.Stats.Regression.slope < 2.2)

let test_regression_predict () =
  let fit = Stats.Regression.linear [ (0.0, 1.0); (1.0, 3.0) ] in
  feq "predict" 5.0 (Stats.Regression.predict fit 2.0)

let test_regression_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.linear: need at least two points") (fun () ->
      ignore (Stats.Regression.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "zero variance"
    (Invalid_argument "Regression.linear: zero variance in x") (fun () ->
      ignore (Stats.Regression.linear [ (1.0, 1.0); (1.0, 2.0) ]));
  Alcotest.check_raises "negative power-law input"
    (Invalid_argument "Regression.power_law: coordinates must be positive") (fun () ->
      ignore (Stats.Regression.power_law [ (1.0, -1.0); (2.0, 2.0) ]))

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)

let test_bootstrap_mean_ci () =
  let stream = Prng.Stream.create 55L in
  let xs = Array.init 200 (fun i -> float_of_int (i mod 21)) in
  (* true mean 10 *)
  let lo, hi = Stats.Bootstrap.mean_ci stream xs in
  Alcotest.(check bool) "contains true mean" true (lo < 10.0 && 10.0 < hi);
  Alcotest.(check bool) "tight-ish" true (hi -. lo < 4.0)

let test_bootstrap_median_ci () =
  let stream = Prng.Stream.create 56L in
  let xs = Array.init 201 (fun i -> float_of_int i) in
  let lo, hi = Stats.Bootstrap.median_ci stream xs in
  Alcotest.(check bool) "contains median" true (lo <= 100.0 && 100.0 <= hi)

let test_bootstrap_errors () =
  let stream = Prng.Stream.create 57L in
  Alcotest.check_raises "empty" (Invalid_argument "Bootstrap.ci: empty sample")
    (fun () -> ignore (Stats.Bootstrap.mean_ci stream [||]))

let test_bootstrap_deterministic () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let a = Stats.Bootstrap.mean_ci (Prng.Stream.create 1L) xs in
  let b = Stats.Bootstrap.mean_ci (Prng.Stream.create 1L) xs in
  Alcotest.(check bool) "same stream, same CI" true (a = b)

(* ------------------------------------------------------------------ *)
(* Regression slope bootstrap CIs                                      *)

(* Deterministic multiplicative pseudo-noise, alternating +/- 5%: no
   PRNG, and sign-balanced so it scatters without biasing the slope. *)
let wobble i = 1.0 +. (0.05 *. if i mod 2 = 0 then 1.0 else -1.0)

let test_slope_ci_power_law () =
  (* y = 3 x^2 with ~5% noise: the CI must contain the true exponent. *)
  let points =
    List.mapi
      (fun i x -> (x, 3.0 *. (x ** 2.0) *. wobble i))
      [ 1.0; 2.0; 3.0; 4.0; 6.0; 8.0; 12.0; 16.0 ]
  in
  let ci = Stats.Regression.power_law_ci (Prng.Stream.create 60L) points in
  Alcotest.(check bool) "ordered" true (ci.Stats.Regression.lo <= ci.Stats.Regression.hi);
  Alcotest.(check bool) "contains exponent 2" true
    (ci.Stats.Regression.lo <= 2.0 && 2.0 <= ci.Stats.Regression.hi);
  Alcotest.(check bool) "centred fit inside" true
    (ci.Stats.Regression.lo <= ci.Stats.Regression.fit.Stats.Regression.slope
    && ci.Stats.Regression.fit.Stats.Regression.slope <= ci.Stats.Regression.hi)

let test_slope_ci_exponential () =
  (* y = 2 e^(0.5 x) with ~5% noise: the CI must contain the true rate. *)
  let points =
    List.mapi
      (fun i x -> (x, 2.0 *. exp (0.5 *. x) *. wobble i))
      [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 ]
  in
  let ci = Stats.Regression.exponential_ci (Prng.Stream.create 61L) points in
  Alcotest.(check bool) "contains rate 0.5" true
    (ci.Stats.Regression.lo <= 0.5 && 0.5 <= ci.Stats.Regression.hi);
  Alcotest.(check bool) "interval not absurdly wide" true
    (ci.Stats.Regression.hi -. ci.Stats.Regression.lo < 0.5)

let test_slope_ci_deterministic () =
  let points = List.map (fun x -> (x, (2.0 *. x) +. 1.0)) [ 1.0; 2.0; 3.0; 5.0 ] in
  let a = Stats.Regression.linear_ci (Prng.Stream.create 62L) points in
  let b = Stats.Regression.linear_ci (Prng.Stream.create 62L) points in
  Alcotest.(check bool) "same stream, same CI" true (a = b);
  let c = Stats.Regression.linear_ci (Prng.Stream.create 63L) points in
  Alcotest.(check bool) "replicate count recorded" true
    (c.Stats.Regression.replicates = 1000 && c.Stats.Regression.confidence = 0.95)

let test_slope_ci_two_points () =
  (* Resamples of a 2-point set are degenerate half the time (both draws
     the same point => zero x-variance); those fall back to the
     full-sample slope rather than raising, so the CI is total and
     collapses onto the slope. *)
  let ci =
    Stats.Regression.linear_ci (Prng.Stream.create 64L) [ (1.0, 1.0); (2.0, 3.0) ]
  in
  Alcotest.(check bool) "finite" true
    (Float.is_finite ci.Stats.Regression.lo && Float.is_finite ci.Stats.Regression.hi);
  Alcotest.(check bool) "contains the only slope" true
    (ci.Stats.Regression.lo <= 2.0 && 2.0 <= ci.Stats.Regression.hi)

let test_slope_ci_errors () =
  let stream = Prng.Stream.create 65L in
  Alcotest.check_raises "bad replicates"
    (Invalid_argument "Regression.bootstrap_ci: replicates must be >= 1")
    (fun () ->
      ignore
        (Stats.Regression.linear_ci stream ~replicates:0 [ (1.0, 1.0); (2.0, 3.0) ]));
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Regression.bootstrap_ci: confidence outside (0,1)")
    (fun () ->
      ignore
        (Stats.Regression.linear_ci stream ~confidence:1.0 [ (1.0, 1.0); (2.0, 3.0) ]))

(* ------------------------------------------------------------------ *)
(* Censored                                                            *)

let exact x = Stats.Censored.Exact x
let at_least x = Stats.Censored.At_least x

let test_censored_counts () =
  let t = Stats.Censored.of_list [ exact 1.0; at_least 5.0; exact 2.0 ] in
  Alcotest.(check int) "count" 3 (Stats.Censored.count t);
  Alcotest.(check int) "censored" 1 (Stats.Censored.censored_count t);
  Alcotest.(check (float 1e-9)) "fraction" (1.0 /. 3.0) (Stats.Censored.censored_fraction t)

let test_censored_median_exact () =
  let t = Stats.Censored.of_list [ exact 1.0; exact 2.0; exact 3.0; exact 4.0; exact 5.0 ] in
  match Stats.Censored.median t with
  | Some (Stats.Censored.Exact m) -> feq "median" 3.0 m
  | _ -> Alcotest.fail "expected exact median"

let test_censored_median_with_high_censoring () =
  (* More than half censored: the median can only be a lower bound. *)
  let t =
    Stats.Censored.of_list [ exact 1.0; at_least 10.0; at_least 10.0; at_least 10.0 ]
  in
  match Stats.Censored.median t with
  | Some (Stats.Censored.At_least m) -> feq "bound" 10.0 m
  | _ -> Alcotest.fail "expected censored median"

let test_censored_median_censored_below () =
  (* A censored observation below the median makes it a lower bound. *)
  let t = Stats.Censored.of_list [ at_least 1.0; exact 2.0; exact 3.0 ] in
  match Stats.Censored.median t with
  | Some (Stats.Censored.At_least m) -> feq "bound" 2.0 m
  | _ -> Alcotest.fail "expected censored median"

let test_censored_mean_lower_bound () =
  let t = Stats.Censored.of_list [ exact 2.0; at_least 10.0 ] in
  feq "mean lb" 6.0 (Stats.Censored.mean_lower_bound t)

let test_censored_exact_values () =
  let t = Stats.Censored.of_list [ exact 2.0; at_least 10.0; exact 4.0 ] in
  let values = Stats.Censored.exact_values t in
  Array.sort compare values;
  Alcotest.(check (array (float 1e-9))) "exacts" [| 2.0; 4.0 |] values

let test_censored_empty () =
  Alcotest.(check bool) "no median" true (Stats.Censored.median Stats.Censored.empty = None);
  Alcotest.(check bool) "nan mean" true
    (Float.is_nan (Stats.Censored.mean_lower_bound Stats.Censored.empty))

let test_censored_merge_equals_fold () =
  (* [merge a b] must be structurally identical to adding b's
     observations after a's — the parallel engine relies on this to
     reproduce the sequential accumulator bit for bit. *)
  let xs = [ exact 1.0; at_least 5.0; exact 2.0 ] in
  let ys = [ at_least 9.0; exact 4.0 ] in
  let a = Stats.Censored.of_list xs and b = Stats.Censored.of_list ys in
  let merged = Stats.Censored.merge a b in
  let folded = List.fold_left Stats.Censored.add a ys in
  Alcotest.(check bool) "identical to sequential fold" true (merged = folded);
  Alcotest.(check int) "count" 5 (Stats.Censored.count merged);
  Alcotest.(check int) "censored" 2 (Stats.Censored.censored_count merged)

let test_censored_merge_empty () =
  let a = Stats.Censored.of_list [ exact 1.0; at_least 2.0 ] in
  Alcotest.(check bool) "left identity" true
    (Stats.Censored.merge Stats.Censored.empty a = a);
  Alcotest.(check bool) "right identity" true
    (Stats.Censored.merge a Stats.Censored.empty = a)

(* ------------------------------------------------------------------ *)
(* Conventions across modules                                          *)

let test_summary_empty_pp () =
  (* The empty summary prints a clean marker, never a row of nans. *)
  Alcotest.(check string) "empty pp" "n=0 (empty)"
    (Format.asprintf "%a" Stats.Summary.pp Stats.Summary.empty);
  let one = Stats.Summary.add Stats.Summary.empty 3.0 in
  let printed = Format.asprintf "%a" Stats.Summary.pp one in
  Alcotest.(check bool) "non-empty pp shows n" true
    (String.length printed > 3 && String.sub printed 0 3 = "n=1")

let test_summary_ci_degenerate () =
  (* Documented: nan bounds below two observations; the option variant
     makes the branch explicit. *)
  let check_nan t =
    let lo, hi = Stats.Summary.mean_ci95 t in
    Alcotest.(check bool) "nan bounds" true (Float.is_nan lo && Float.is_nan hi);
    Alcotest.(check bool) "opt none" true (Stats.Summary.mean_ci95_opt t = None)
  in
  check_nan Stats.Summary.empty;
  check_nan (Stats.Summary.add Stats.Summary.empty 5.0);
  let two = Stats.Summary.of_array [| 1.0; 3.0 |] in
  match Stats.Summary.mean_ci95_opt two with
  | Some (lo, hi) ->
      let lo', hi' = Stats.Summary.mean_ci95 two in
      feq "lo agrees" lo' lo;
      feq "hi agrees" hi' hi;
      Alcotest.(check bool) "finite" true (Float.is_finite lo && Float.is_finite hi)
  | None -> Alcotest.fail "two observations have a CI"

let test_quantile_sorted_copy () =
  let xs = [| 3.0; nan; 1.0; 2.0 |] in
  let sorted = Stats.Quantile.sorted_copy xs in
  (* Total order: the nan sorts first, the rest ascending. *)
  Alcotest.(check bool) "nan first" true (Float.is_nan sorted.(0));
  Alcotest.(check (array (float 1e-9))) "rest ascending" [| 1.0; 2.0; 3.0 |]
    (Array.sub sorted 1 3);
  (* The input is untouched. *)
  Alcotest.(check (float 1e-9)) "input intact" 3.0 xs.(0)

let test_censored_quantile_order_statistic () =
  (* On all-exact samples, Censored.quantile is the lower empirical
     order statistic at index min (n-1) (floor (q * n)). *)
  let values = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let t = Stats.Censored.of_list (Array.to_list (Array.map exact values)) in
  let n = Array.length values in
  List.iter
    (fun q ->
      let expected = values.(Stdlib.min (n - 1) (int_of_float (q *. float_of_int n))) in
      match Stats.Censored.quantile t q with
      | Some (Stats.Censored.Exact v) ->
          feq (Printf.sprintf "q=%.2f" q) expected v
      | _ -> Alcotest.fail "expected exact order statistic")
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let test_quantile_conventions_agree_on_order_statistics () =
  (* Where the type-7 position q*(n-1) lands exactly on an order
     statistic, the interpolating and censored conventions coincide
     (documented in both .mlis). n = 5: q in {0, .25, .5, .75, 1}. *)
  let values = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let t = Stats.Censored.of_list (Array.to_list (Array.map exact values)) in
  List.iter
    (fun q ->
      let interpolated = Stats.Quantile.of_sorted values q in
      match Stats.Censored.quantile t q with
      | Some (Stats.Censored.Exact v) ->
          feq (Printf.sprintf "agree at q=%.2f" q) interpolated v
      | _ -> Alcotest.fail "expected exact")
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  (* Off the grid they deliberately differ: n = 4, q = 1/2 — type 7
     interpolates to 2.5, the censored convention stays on the order
     statistic 3. *)
  let four = [| 1.0; 2.0; 3.0; 4.0 |] in
  feq "type-7 interpolates" 2.5 (Stats.Quantile.of_sorted four 0.5);
  match
    Stats.Censored.quantile
      (Stats.Censored.of_list (Array.to_list (Array.map exact four)))
      0.5
  with
  | Some (Stats.Censored.Exact v) -> feq "censored stays on sample" 3.0 v
  | _ -> Alcotest.fail "expected exact"

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let t =
    Stats.Table.create ~headers:[ "name"; "value" ]
    |> (fun t -> Stats.Table.add_row t [ "alpha"; "1" ])
    |> fun t -> Stats.Table.add_row t [ "beta"; "22" ]
  in
  let s = Stats.Table.render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.(check bool) "has rule" true (String.length (List.nth lines 1) > 0)

let test_table_alignment () =
  let t =
    Stats.Table.create ~headers:[ "n" ] |> fun t ->
    Stats.Table.add_row t [ "5" ] |> fun t -> Stats.Table.add_row t [ "500" ]
  in
  let s = Stats.Table.render t in
  (* Numeric column should right-align: the "5" row ends with "5". *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check string) "padded" "  5" (List.nth lines 2)

let test_table_arity_error () =
  let t = Stats.Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch with headers")
    (fun () -> ignore (Stats.Table.add_row t [ "only one" ]))

let test_table_csv () =
  let t =
    Stats.Table.create ~headers:[ "k"; "v" ] |> fun t ->
    Stats.Table.add_row t [ "x,y"; "has \"quote\"" ]
  in
  let csv = Stats.Table.to_csv t in
  Alcotest.(check bool) "quoted comma" true
    (String.length csv > 0
    && String.split_on_char '\n' csv |> fun lines ->
       List.nth lines 1 = "\"x,y\",\"has \"\"quote\"\"\"")

let test_table_rows_in_order () =
  let t =
    List.fold_left
      (fun t i -> Stats.Table.add_row t [ string_of_int i ])
      (Stats.Table.create ~headers:[ "i" ])
      [ 1; 2; 3 ]
  in
  let csv = Stats.Table.to_csv t in
  Alcotest.(check string) "ordered" "i\n1\n2\n3\n" csv

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let qcheck_tests =
  let open QCheck in
  let nonempty_floats =
    list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0)
  in
  [
    Test.make ~name:"summary mean within [min,max]" ~count:300 nonempty_floats
      (fun xs ->
        let s = Stats.Summary.of_array (Array.of_list xs) in
        let m = Stats.Summary.mean s in
        m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9);
    Test.make ~name:"summary merge commutes" ~count:300
      (pair nonempty_floats nonempty_floats)
      (fun (xs, ys) ->
        let a = Stats.Summary.of_array (Array.of_list xs) in
        let b = Stats.Summary.of_array (Array.of_list ys) in
        let ab = Stats.Summary.merge a b and ba = Stats.Summary.merge b a in
        Float.abs (Stats.Summary.mean ab -. Stats.Summary.mean ba) < 1e-9);
    Test.make ~name:"quantile monotone in q" ~count:300
      (triple nonempty_floats (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (xs, q1, q2) ->
        let arr = Array.of_list xs in
        let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
        Stats.Quantile.quantile arr lo <= Stats.Quantile.quantile arr hi +. 1e-9);
    Test.make ~name:"wilson interval ordered and in [0,1]" ~count:300
      (pair small_nat small_nat)
      (fun (a, b) ->
        let trials = a + b in
        QCheck.assume (trials > 0);
        let p = Stats.Proportion.make ~successes:a ~trials in
        let lo, hi = Stats.Proportion.wilson_ci p in
        0.0 <= lo && lo <= hi && hi <= 1.0);
    Test.make ~name:"censored mean lower bound <= true mean when uncensoring" ~count:300
      (list_of_size (Gen.int_range 1 30) (pair bool (float_bound_inclusive 100.0)))
      (fun entries ->
        (* Interpret each censored bound b as a true value b + 5. *)
        let observations =
          List.map
            (fun (censored, x) ->
              if censored then Stats.Censored.At_least x else Stats.Censored.Exact x)
            entries
        in
        let truth =
          List.map (fun (censored, x) -> if censored then x +. 5.0 else x) entries
        in
        let t = Stats.Censored.of_list observations in
        let true_mean =
          List.fold_left ( +. ) 0.0 truth /. float_of_int (List.length truth)
        in
        Stats.Censored.mean_lower_bound t <= true_mean +. 1e-9);
    Test.make ~name:"censored merge = sequential fold" ~count:300
      (pair
         (list (pair bool (float_bound_inclusive 100.0)))
         (list (pair bool (float_bound_inclusive 100.0))))
      (fun (xs, ys) ->
        let obs =
          List.map (fun (censored, x) ->
              if censored then Stats.Censored.At_least x else Stats.Censored.Exact x)
        in
        let a = Stats.Censored.of_list (obs xs) in
        let merged = Stats.Censored.merge a (Stats.Censored.of_list (obs ys)) in
        merged = List.fold_left Stats.Censored.add a (obs ys));
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "stats"
    [
      ( "summary",
        [
          case "empty" test_summary_empty;
          case "basic" test_summary_basic;
          case "single" test_summary_single;
          case "merge = of_array" test_summary_merge_equals_of_array;
          case "merge empty" test_summary_merge_empty;
          case "ci" test_summary_ci;
          case "numerical stability" test_summary_numerical_stability;
        ] );
      ( "quantile",
        [
          case "known" test_quantile_known;
          case "interpolation" test_quantile_interpolation;
          case "unsorted" test_quantile_unsorted_input;
          case "single" test_quantile_single;
          case "errors" test_quantile_errors;
          case "iqr" test_iqr;
        ] );
      ( "proportion",
        [
          case "estimate" test_proportion_estimate;
          case "wilson contains" test_proportion_wilson_contains_estimate;
          case "wilson extremes" test_proportion_wilson_extremes;
          case "wilson known" test_proportion_wilson_known;
          case "within" test_proportion_within;
          case "invalid" test_proportion_invalid;
          case "merge pools" test_proportion_merge_pools;
        ] );
      ( "regression",
        [
          case "exact line" test_regression_exact_line;
          case "power law" test_regression_power_law;
          case "exponential" test_regression_exponential;
          case "noisy" test_regression_noisy_r2;
          case "predict" test_regression_predict;
          case "errors" test_regression_errors;
        ] );
      ( "bootstrap",
        [
          case "mean ci" test_bootstrap_mean_ci;
          case "median ci" test_bootstrap_median_ci;
          case "errors" test_bootstrap_errors;
          case "deterministic" test_bootstrap_deterministic;
        ] );
      ( "slope-ci",
        [
          case "power law contains exponent" test_slope_ci_power_law;
          case "exponential contains rate" test_slope_ci_exponential;
          case "deterministic" test_slope_ci_deterministic;
          case "two points total" test_slope_ci_two_points;
          case "errors" test_slope_ci_errors;
        ] );
      ( "censored",
        [
          case "counts" test_censored_counts;
          case "median exact" test_censored_median_exact;
          case "median censored mass" test_censored_median_with_high_censoring;
          case "median censored below" test_censored_median_censored_below;
          case "mean lower bound" test_censored_mean_lower_bound;
          case "exact values" test_censored_exact_values;
          case "empty" test_censored_empty;
          case "merge = fold" test_censored_merge_equals_fold;
          case "merge empty" test_censored_merge_empty;
        ] );
      ( "conventions",
        [
          case "summary empty pp" test_summary_empty_pp;
          case "summary degenerate ci" test_summary_ci_degenerate;
          case "sorted_copy total order" test_quantile_sorted_copy;
          case "censored quantile = order statistic" test_censored_quantile_order_statistic;
          case "conventions agree on grid" test_quantile_conventions_agree_on_order_statistics;
        ] );
      ( "table",
        [
          case "render" test_table_render;
          case "alignment" test_table_alignment;
          case "arity" test_table_arity_error;
          case "csv" test_table_csv;
          case "row order" test_table_rows_in_order;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
