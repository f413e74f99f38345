(* E20 — the two pillars Theorem 3(ii)'s proof borrows from
   Angel–Benjamini [3], measured with the operational good-vertex
   definition of Routing.Good_vertex:

   (1) a vertex is good with probability 1 - exp(-c n^{1-alpha}):
       the good fraction should rise towards 1 as n grows, faster for
       smaller alpha;
   (2) good vertices at fault-free distance <= 3 have percolation
       distance at most l(alpha) = O((1 - 2 alpha)^{-1}), uniformly in
       n: the observed maximum over sampled good pairs should stay flat
       in n and grow as alpha approaches 1/2. *)

let id = "E20"
let title = "Good vertices: the scaffolding of Theorem 3(ii)"

let claim =
  "(1) Pr[vertex good] = 1 - exp(-c n^{1-alpha}); (2) w.h.p. all good pairs at \
   distance <= 3 have percolation distance <= l(alpha), uniformly in n."

let run ?(quick = false) stream =
  let alphas = if quick then [ 0.30 ] else [ 0.30; 0.40; 0.45 ] in
  let sizes = if quick then [ 10 ] else [ 10; 12; 14 ] in
  let vertex_samples = if quick then 100 else 400 in
  let pair_samples = if quick then 30 else 100 in
  let worlds = if quick then 2 else 4 in
  let table =
    ref
      (Stats.Table.create
         ~headers:
           [
             "alpha";
             "n";
             "p";
             "good fraction";
             "mean D(good pair)";
             "max D(good pair)";
           ])
  in
  let min_good = ref infinity in
  let max_pair_distance = ref 0.0 in
  List.iteri
    (fun alpha_index alpha ->
      List.iteri
        (fun size_index n ->
          let p = float_of_int n ** -.alpha in
          let graph = Topology.Hypercube.graph n in
          let substream =
            Prng.Stream.split stream ((alpha_index * 100) + size_index)
          in
          let good = ref 0 and sampled = ref 0 in
          let distances = ref Stats.Summary.empty in
          for w = 1 to worlds do
            let seed = Prng.Coin.derive (Prng.Stream.seed substream) w in
            let world = Percolation.World.create graph ~p ~seed in
            let fraction =
              Routing.Good_vertex.fraction_good
                (Prng.Stream.split substream (10 + w))
                world ~samples:vertex_samples
            in
            good := !good + fraction.Stats.Proportion.successes;
            sampled := !sampled + fraction.Stats.Proportion.trials;
            (* Sample pairs at fault-free distance exactly 3. *)
            let pair_stream = Prng.Stream.split substream (20 + w) in
            for _ = 1 to pair_samples do
              let u = Prng.Stream.int_in pair_stream graph.Topology.Graph.vertex_count in
              let v =
                (* flip three distinct random bits *)
                let bits = Prng.Sample.subset_indices pair_stream ~n ~k:3 in
                Array.fold_left Topology.Hypercube.flip u bits
              in
              match Routing.Good_vertex.good_pair_distance world u v with
              | `Distance d -> distances := Stats.Summary.add !distances (float_of_int d)
              | `Not_good | `Disconnected -> ()
            done
          done;
          min_good :=
            Float.min !min_good (float_of_int !good /. float_of_int !sampled);
          if Stats.Summary.count !distances > 0 then
            max_pair_distance :=
              Float.max !max_pair_distance (Stats.Summary.max !distances);
          table :=
            Stats.Table.add_row !table
              [
                Printf.sprintf "%.2f" alpha;
                string_of_int n;
                Printf.sprintf "%.4f" p;
                Printf.sprintf "%.3f" (float_of_int !good /. float_of_int !sampled);
                (if Stats.Summary.count !distances = 0 then "-"
                 else Printf.sprintf "%.1f" (Stats.Summary.mean !distances));
                (if Stats.Summary.count !distances = 0 then "-"
                 else Printf.sprintf "%.0f" (Stats.Summary.max !distances));
              ])
        sizes)
    alphas;
  let notes =
    [
      Printf.sprintf
        "%d worlds per cell, %d vertex samples and %d distance-3 pairs per world; \
         good = open degree >= np/2 and radius-2 open ball >= (np)^2/4 (operational \
         variant of [3]'s condition, documented in Routing.Good_vertex)."
        worlds vertex_samples pair_samples;
      "Expect the good fraction to increase with n at fixed alpha (claim 1) and \
       the max good-pair distance to stay a small constant across n while growing \
       with alpha (claim 2) — the two inputs the segment router's n^{l+1} bound \
       needs.";
    ]
  in
  let claims =
    [
      Claim.floor ~id:"E20/good-density"
        ~description:
          "minimum good-vertex fraction over all (alpha, n) cells — good \
           vertices dominate below alpha = 1/2"
        ~min:0.5 !min_good;
      Claim.ceiling ~id:"E20/good-pair-distance"
        ~description:
          "maximum percolation distance over sampled good pairs at fault-free \
           distance 3 — bounded uniformly in n, as Theorem 3(ii) needs"
        ~max:12.0 !max_pair_distance;
    ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("good-vertex density and good-pair distances on H_{n,p}", !table) ]
