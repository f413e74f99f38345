type t = {
  name : string;
  policy : Percolation.Oracle.policy;
  route : Percolation.Oracle.t -> target:int -> Outcome.t;
}

exception Invalid_route of { router : string; failure : Path.failure }

let found_outcome oracle path =
  Outcome.Found
    {
      path;
      probes = Percolation.Oracle.distinct_probes oracle;
      raw_probes = Percolation.Oracle.raw_probes oracle;
    }

let trivial_outcome oracle ~target =
  if Percolation.Oracle.source oracle = target then
    Some (found_outcome oracle [ target ])
  else None

let run ?budget router world ~source ~target =
  (* The oracle lives in this domain's scratch for exactly one attempt;
     the outcome holds no reference to it. *)
  let outcome =
    Percolation.Oracle.with_scratch ~policy:router.policy ?budget world ~source
      (fun oracle ->
        if Obs.Metrics.on () then Obs.Metrics.tick ("router.runs." ^ router.name);
        let route () =
          match router.route oracle ~target with
          | outcome -> outcome
          | exception Percolation.Oracle.Budget_exhausted ->
              Outcome.Budget_exceeded
                { probes = Percolation.Oracle.distinct_probes oracle }
        in
        (* "router.run" includes the oracle work the router triggers; the
           profiling report reads router logic as run minus
           oracle.world_query. *)
        if Obs.Timing.on () then Obs.Timing.span "router.run" route else route ())
  in
  (match outcome with
  | Outcome.Found { path; _ } -> (
      match Path.validate world ~source ~target path with
      | Ok () -> ()
      | Error failure -> raise (Invalid_route { router = router.name; failure }))
  | Outcome.No_path _ | Outcome.Budget_exceeded _ -> ());
  outcome
