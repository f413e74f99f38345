type fit = { slope : float; intercept : float; r_squared : float; n : int }

let linear points =
  let n = List.length points in
  if n < 2 then invalid_arg "Regression.linear: need at least two points";
  let fn = float_of_int n in
  let sum_x = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sum_y = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let mean_x = sum_x /. fn and mean_y = sum_y /. fn in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. ((x -. mean_x) ** 2.0)) 0.0 points in
  let sxy =
    List.fold_left (fun acc (x, y) -> acc +. ((x -. mean_x) *. (y -. mean_y))) 0.0 points
  in
  let syy = List.fold_left (fun acc (_, y) -> acc +. ((y -. mean_y) ** 2.0)) 0.0 points in
  if sxx = 0.0 then invalid_arg "Regression.linear: zero variance in x";
  let slope = sxy /. sxx in
  let intercept = mean_y -. (slope *. mean_x) in
  let ss_res =
    List.fold_left
      (fun acc (x, y) ->
        let err = y -. ((slope *. x) +. intercept) in
        acc +. (err *. err))
      0.0 points
  in
  let r_squared = if syy = 0.0 then 1.0 else 1.0 -. (ss_res /. syy) in
  { slope; intercept; r_squared; n }

let power_law points =
  let transformed =
    List.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then
          invalid_arg "Regression.power_law: coordinates must be positive";
        (log x, log y))
      points
  in
  linear transformed

let exponential points =
  let transformed =
    List.map
      (fun (x, y) ->
        if y <= 0.0 then invalid_arg "Regression.exponential: y must be positive";
        (x, log y))
      points
  in
  linear transformed

let predict fit x = (fit.slope *. x) +. fit.intercept

type slope_ci = {
  fit : fit;
  lo : float;
  hi : float;
  replicates : int;
  confidence : float;
}

(* Case-resampling percentile bootstrap on (x, y) pairs. Resamples that
   collapse to zero x-variance carry no slope information; they fall back to
   the full-sample slope so the replicate count (and hence the stream
   consumption) stays fixed and the CI remains deterministic. *)
let bootstrap_ci stream ?(replicates = 1000) ?(confidence = 0.95) ~fit_of points
    =
  if replicates < 1 then
    invalid_arg "Regression.bootstrap_ci: replicates must be >= 1";
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Regression.bootstrap_ci: confidence outside (0,1)";
  let base = fit_of points in
  let arr = Array.of_list points in
  let n = Array.length arr in
  let slopes =
    Array.init replicates (fun _ ->
        let sample =
          List.init n (fun _ -> arr.(Prng.Stream.int_in stream n))
        in
        match fit_of sample with
        | f -> f.slope
        | exception Invalid_argument _ -> base.slope)
  in
  Array.sort Float.compare slopes;
  let alpha = (1.0 -. confidence) /. 2.0 in
  {
    fit = base;
    lo = Quantile.of_sorted slopes alpha;
    hi = Quantile.of_sorted slopes (1.0 -. alpha);
    replicates;
    confidence;
  }

let linear_ci stream ?replicates ?confidence points =
  bootstrap_ci stream ?replicates ?confidence ~fit_of:linear points

let power_law_ci stream ?replicates ?confidence points =
  (* Validate and transform once; resampling log-log pairs is equivalent to
     resampling the raw pairs and refitting. *)
  let transformed =
    List.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then
          invalid_arg "Regression.power_law_ci: coordinates must be positive";
        (log x, log y))
      points
  in
  bootstrap_ci stream ?replicates ?confidence ~fit_of:linear transformed

let exponential_ci stream ?replicates ?confidence points =
  let transformed =
    List.map
      (fun (x, y) ->
        if y <= 0.0 then
          invalid_arg "Regression.exponential_ci: y must be positive";
        (x, log y))
      points
  in
  bootstrap_ci stream ?replicates ?confidence ~fit_of:linear transformed

let pp ppf fit =
  Format.fprintf ppf "slope=%.4f intercept=%.4f R\xc2\xb2=%.4f (n=%d)" fit.slope
    fit.intercept fit.r_squared fit.n
