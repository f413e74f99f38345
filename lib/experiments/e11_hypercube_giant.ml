(* E11 — the background fact of Ajtai–Komlós–Szemerédi used throughout
   Section 3: H_{n,p} has a giant component iff p*n > 1. Sweep the ratio
   x = p*n across 1 and census the components. *)

let id = "E11"
let title = "Hypercube giant-component threshold at p = 1/n (AKS background)"

let claim =
  "If p >= (1+eps)/n then H_{n,p} has a component of size Theta(2^n) w.h.p.; if \
   p <= (1-eps)/n the largest component is o(2^n)."

let run ?(quick = false) stream =
  let n = if quick then 10 else 14 in
  let ratios = if quick then [ 0.5; 1.5 ] else [ 0.50; 0.75; 1.00; 1.25; 1.50; 2.00 ] in
  let worlds = if quick then 4 else 10 in
  let graph = Topology.Hypercube.graph n in
  let table =
    ref
      (Stats.Table.create
         ~headers:
           [ "p*n"; "p"; "mean giant frac"; "mean 2nd frac"; "giant present" ])
  in
  let row_stats = ref [] in
  (* World w is built at every ratio from its one seed. Its coins are
     threshold tests of one uniform per edge, so its open edges at
     increasing p*n nest and its giant fraction is non-decreasing across
     the sweep deterministically. *)
  let substream = Prng.Stream.split stream 0 in
  let seeds =
    Array.init worlds (fun i -> Prng.Coin.derive (Prng.Stream.seed substream) (i + 1))
  in
  List.iter
    (fun ratio ->
      let p = ratio /. float_of_int n in
      let giant_fracs = ref Stats.Summary.empty in
      let second_fracs = ref Stats.Summary.empty in
      let giants = ref 0 in
      Array.iter
        (fun seed ->
          let census = Percolation.Clusters.census (Percolation.World.create graph ~p ~seed) in
          giant_fracs :=
            Stats.Summary.add !giant_fracs (Percolation.Clusters.giant_fraction census);
          second_fracs :=
            Stats.Summary.add !second_fracs
              (float_of_int census.Percolation.Clusters.second_largest
              /. float_of_int census.Percolation.Clusters.vertex_count);
          if Percolation.Clusters.has_giant ~threshold:0.05 census then incr giants)
        seeds;
      row_stats :=
        ( Stats.Summary.mean !giant_fracs,
          Stats.Summary.mean !second_fracs,
          float_of_int !giants /. float_of_int worlds )
        :: !row_stats;
      table :=
        Stats.Table.add_row !table
          [
            Printf.sprintf "%.2f" ratio;
            Printf.sprintf "%.4f" p;
            Printf.sprintf "%.3f" (Stats.Summary.mean !giant_fracs);
            Printf.sprintf "%.4f" (Stats.Summary.mean !second_fracs);
            Printf.sprintf "%d/%d" !giants worlds;
          ])
    ratios;
  let notes =
    [
      Printf.sprintf "n = %d, %d worlds per ratio; 'giant present' uses a 5%% + \
                      2x-second-component test." n worlds;
      "Expect the giant fraction to lift off between p*n = 1.0 and 1.25 and the \
       second component to stay negligible above threshold (uniqueness).";
    ]
  in
  let claims =
    match List.rev !row_stats with
    | [] -> []
    | (first_giant, _, _) :: _ as rows ->
        let last_giant, _, last_detect = List.nth rows (List.length rows - 1) in
        let max_second =
          List.fold_left (fun acc (_, s, _) -> Float.max acc s) 0.0 rows
        in
        [
          Claim.ceiling ~id:"E11/subcritical-giant"
            ~description:
              (Printf.sprintf "mean giant fraction at p*n = %.2f (below 1)"
                 (List.hd ratios))
            ~max:0.1 first_giant;
          Claim.floor ~id:"E11/supercritical-giant"
            ~description:
              (Printf.sprintf "mean giant fraction at p*n = %.2f (above 1)"
                 (List.nth ratios (List.length ratios - 1)))
            ~min:0.15 last_giant;
          Claim.floor ~id:"E11/giant-detector"
            ~description:
              "fraction of worlds passing the giant test at the largest ratio"
            ~min:0.9 last_detect;
          Claim.ceiling ~id:"E11/second-component"
            ~description:
              "max mean second-component fraction over the sweep (uniqueness)"
            ~max:0.1 max_second;
        ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ (Printf.sprintf "component census of H_%d across the AKS threshold" n, !table) ]
