(* E6 — Lemma 6: root-to-root connectivity of the double tree TT_n has
   threshold p = 1/sqrt(2). The event {x ~ y} equals survival to depth n
   of a binary branching process with per-edge probability p^2, so the
   exact probability obeys the recursion
       q_0 = 1,   q_k = 1 - (1 - p^2 q_{k-1})^2,
   and Pr[x ~ y] = q_n ([Percolation.Branching.double_tree_connection]).
   We measure it by Monte-Carlo reveal and print the exact value
   alongside — the measurement must track the recursion, and both must
   collapse for p below 1/sqrt(2) as n grows. *)

let id = "E6"
let title = "Double-tree connectivity threshold (Lemma 6)"

let claim =
  "Pr[x ~ y] in TT_{n,p} is bounded away from 0 iff p > 1/sqrt(2) ~= 0.7071; below \
   the threshold it vanishes with n."

let run ?(quick = false) stream =
  let ps =
    if quick then [ 0.65; 0.75 ]
    else [ 0.60; 0.64; 0.68; 0.70; 0.7071; 0.73; 0.76; 0.80 ]
  in
  let depths = if quick then [ 6 ] else [ 8; 12; 16 ] in
  let trials = if quick then 40 else 150 in
  let table =
    ref
      (Stats.Table.create
         ~headers:[ "n"; "p"; "measured P[x~y]"; "exact (GW recursion)" ])
  in
  let max_deviation = ref 0.0 in
  let sub_threshold_rates = ref [] in
  (* One Runner grid over depth x trial, each depth's double tree built
     once. Trial t of a depth is seeded from that depth's substream and
     cut at every p, so each depth's measured curve is non-decreasing in
     p deterministically (root-to-root connectivity is monotone); only
     the depth axis draws fresh substreams. *)
  let trees =
    Array.of_list
      (List.map
         (fun n -> (Topology.Double_tree.graph n, Topology.Double_tree.root2 ~n))
         depths)
  in
  let rows =
    Runner.grid
      ~name:(Printf.sprintf "%s;quick=%b" id quick)
      stream ~cells:(Array.length trees) ~trials
      (fun n_index trial ->
        let graph, y = trees.(n_index) in
        let substream = Prng.Stream.split stream n_index in
        let seed = Prng.Coin.derive (Prng.Stream.seed substream) (trial + 1) in
        Array.of_list
          (List.map
             (fun p ->
               let world = Percolation.World.create graph ~p ~seed in
               match Percolation.Reveal.connected world Topology.Double_tree.root1 y with
               | Percolation.Reveal.Connected _ -> 1.0
               | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown -> 0.0)
             ps))
  in
  List.iteri
    (fun n_index n ->
      List.iteri
        (fun p_index p ->
          let rate = Runner.mean rows.(n_index) p_index in
          let exact = Percolation.Branching.double_tree_connection ~p ~n in
          max_deviation := Float.max !max_deviation (Float.abs (rate -. exact));
          (* The first p of the sweep sits below 1/sqrt(2) in both modes. *)
          if p_index = 0 then sub_threshold_rates := rate :: !sub_threshold_rates;
          table :=
            Stats.Table.add_row !table
              [
                string_of_int n;
                Printf.sprintf "%.4f" p;
                Printf.sprintf "%.3f" rate;
                Printf.sprintf "%.3f" exact;
              ])
        ps)
    depths;
  let notes =
    [
      Printf.sprintf "%d Monte-Carlo worlds per cell; threshold 1/sqrt(2) = %.4f."
        trials (1.0 /. sqrt 2.0);
      "Measured rates should match the exact recursion within sampling error, and \
       the sub-threshold columns should fall towards 0 as n grows while the \
       super-threshold ones stabilise.";
    ]
  in
  let claims =
    Claim.ceiling ~id:"E6/recursion-agreement"
      ~description:
        "max |measured - exact GW recursion| over all cells (sampling error)"
      ~max:0.15 !max_deviation
    ::
    (if List.length depths >= 2 then
       [
         Claim.decreasing ~id:"E6/subcritical-decay"
           ~description:
             (Printf.sprintf
                "measured P[x~y] at p=%.2f falls as the depth grows (below \
                 1/sqrt(2))"
                (List.hd ps))
           (List.rev !sub_threshold_rates);
       ]
     else [])
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("root-to-root connectivity of TT_n", !table) ]
