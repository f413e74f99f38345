(* E23 — node failures (site percolation), the fault model of
   Hastad–Leighton–Newman cited in the related work.

   Two validations:
   (1) the 2-d mesh site threshold sits near the literature value
       p_c^site ~= 0.5927 — strictly above the bond value 1/2, because a
       dead vertex kills four edges at once in a correlated way;
   (2) above both thresholds, Theorem 4-style path-following routing
       keeps working under node faults exactly as it does under edge
       faults (the router only ever sees closed incident links). *)

let id = "E23"
let title = "Node failures: site percolation and routing through dead nodes"

let claim =
  "Site percolation on the 2-d mesh has p_c ~= 0.5927 (literature); above it the \
   path-following router routes in O(n) probes just as under edge faults — the \
   probe model does not care why a link is down."

let run ?(quick = false) stream =
  let d = 2 in
  (* Part 1: threshold by finite-size scaling, in the site parameter. *)
  let sizes = if quick then [ 12; 24 ] else [ 12; 24; 48 ] in
  let trials = if quick then 8 else 30 in
  let ps =
    if quick then [ 0.50; 0.56; 0.60; 0.64; 0.70 ]
    else [ 0.50; 0.54; 0.57; 0.59; 0.61; 0.64; 0.70 ]
  in
  let curves =
    E19_finite_size_scaling.giant_curves
      ~name:(Printf.sprintf "%s;quick=%b" id quick)
      stream
      ~world_at:(fun graph ~seed site_p ->
        Percolation.World.create ~site_p graph ~p:1.0 ~seed)
      ~graphs:(List.map (fun m -> (m, Topology.Mesh.graph ~d ~m)) sizes)
      ~ps ~trials
  in
  let site_estimate = Percolation.Scaling.estimate_threshold curves in
  let threshold_table =
    Stats.Table.create ~headers:[ "sizes"; "crossings"; "p_c^site estimate"; "literature" ]
    |> fun t ->
    Stats.Table.add_row t
      [
        String.concat "," (List.map string_of_int sizes);
        String.concat ", "
          (List.map (Printf.sprintf "%.3f") (Percolation.Scaling.crossings curves));
        (match site_estimate with
        | Some e -> Printf.sprintf "%.3f" e
        | None -> "-");
        "0.5927";
      ]
  in
  (* Part 2: routing above the site threshold. *)
  let route_trials = if quick then 5 else 20 in
  let distances = if quick then [ 10 ] else [ 10; 20; 40 ] in
  let site_ps = if quick then [ 0.75 ] else [ 0.65; 0.75; 0.90 ] in
  let routing_table =
    ref
      (Stats.Table.create
         ~headers:[ "site p"; "n (distance)"; "mean probes"; "probes/n"; "P[u~v]" ])
  in
  let max_probes_per_n = ref 0.0 in
  List.iteri
    (fun p_index site_p ->
      List.iteri
        (fun n_index n ->
          let margin = 10 in
          let m = n + (2 * margin) in
          let graph = Topology.Mesh.graph ~d ~m in
          let row = m / 2 in
          let source = Topology.Mesh.index ~m [| margin; row |] in
          let target = Topology.Mesh.index ~m [| margin + n; row |] in
          let substream =
            Prng.Stream.split stream (1000 + (p_index * 100) + n_index)
          in
          (* A hand-rolled conditioned loop (Trial.spec builds bond-only
             worlds, so we roll our own with site faults). *)
          let probes = ref Stats.Summary.empty in
          let connected = ref 0 in
          let attempts = ref 0 in
          while Stats.Summary.count !probes < route_trials && !attempts < route_trials * 200
          do
            incr attempts;
            let seed = Prng.Coin.derive (Prng.Stream.seed substream) !attempts in
            let world = Percolation.World.create ~site_p graph ~p:1.0 ~seed in
            match Percolation.Reveal.connected world source target with
            | Percolation.Reveal.Connected _ ->
                incr connected;
                let router = Routing.Path_follow.mesh ~d ~m ~source ~target in
                (match Routing.Router.run router world ~source ~target with
                | Routing.Outcome.Found { probes = cost; _ } ->
                    probes := Stats.Summary.add !probes (float_of_int cost)
                | Routing.Outcome.No_path _ | Routing.Outcome.Budget_exceeded _ -> ())
            | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown -> ()
          done;
          let mean = Stats.Summary.mean !probes in
          if Stats.Summary.count !probes > 0 then
            max_probes_per_n :=
              Float.max !max_probes_per_n (mean /. float_of_int n);
          routing_table :=
            Stats.Table.add_row !routing_table
              [
                Printf.sprintf "%.2f" site_p;
                string_of_int n;
                (if Stats.Summary.count !probes = 0 then "-"
                 else Printf.sprintf "%.0f" mean);
                (if Stats.Summary.count !probes = 0 then "-"
                 else Printf.sprintf "%.1f" (mean /. float_of_int n));
                Printf.sprintf "%.2f"
                  (float_of_int !connected /. float_of_int !attempts);
              ])
        distances)
    site_ps;
  let notes =
    [
      Printf.sprintf
        "Part 1: coupled giant-fraction curves, %d worlds per (size, p); pure site \
         model (p_edge = 1). Part 2: path-following router on the mesh with node \
         faults only, %d conditioned trials per cell."
        trials route_trials;
      "Expect the site threshold estimate near 0.593 — clearly above the bond 0.5 \
       — and probes/n flat in n for each site p above it, with the constant \
       growing as site p approaches the threshold (the Theorem 4 shape, fault \
       type notwithstanding).";
    ]
  in
  let claims =
    let estimate_claims =
      match site_estimate with
      | Some e ->
          [
            Claim.band ~id:"E23/site-threshold"
              ~description:
                "finite-size-scaling estimate of the 2-d site threshold \
                 (literature 0.5927, strictly above the bond 0.5)"
              ~lo:0.55 ~hi:0.70 e;
          ]
      | None -> []
    in
    let curve_claims =
      match
        List.find_opt
          (fun c ->
            c.Percolation.Scaling.size = List.fold_left max 0 sizes)
          curves
      with
      | Some curve when List.length curve.Percolation.Scaling.points >= 2 ->
          let points = curve.Percolation.Scaling.points in
          let _, frac_first = List.hd points in
          let _, frac_last = List.nth points (List.length points - 1) in
          [
            Claim.increasing ~id:"E23/giant-grows-with-site-p"
              ~description:
                "giant fraction on the largest mesh grows from the smallest \
                 to the largest site p"
              [ frac_first; frac_last ];
          ]
      | _ -> []
    in
    let routing_claims =
      if !max_probes_per_n > 0.0 then
        [
          Claim.ceiling ~id:"E23/routing-cost"
            ~description:
              "max probes/n over all (site p, n) routing cells — linear cost \
               survives node faults above the site threshold"
            ~max:80.0 !max_probes_per_n;
        ]
      else []
    in
    estimate_claims @ curve_claims @ routing_claims
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [
      ("site-percolation threshold by finite-size scaling", threshold_table);
      ("path-follow routing under node faults", !routing_table);
    ]
