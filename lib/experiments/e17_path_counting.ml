(* E17 — machine-checking the combinatorial heart of Theorem 3(i).

   The lower-bound proof hinges on |A_k| <= n^k l^{2k} l!, where A_k is
   the set of length-(l+2k) coordinate paths from the ball centre to a
   boundary vertex that stay inside the radius-l Hamming ball. We
   compute |A_k| exactly by dynamic programming and verify the bound
   term by term; we then compare, at parameters where the proof's
   geometric series converges (n l^2 p^2 < 1), three values of the
   Lemma 5 quantity Pr[(v ~ x) in S]:

     Monte-Carlo estimate <= exact-count series + analytic tail
                          <= closed form (lp)^l / (1 - n l^2 p^2).

   The chain validates both the proof's counting step and its analytic
   simplification on concrete instances. *)

let id = "E17"
let title = "Theorem 3(i)'s path-counting lemma, checked exactly"

let claim =
  "|A_k| <= n^k l^{2k} l!, and hence Pr[(v ~ x) in S] <= (lp)^l / (1 - n l^2 p^2); \
   exact walk counts and a Monte-Carlo estimate must respect the chain."

let run ?(quick = false) stream =
  let n = if quick then 8 else 10 in
  let count_radius = 3 in
  (* |A_k| table: the bound holds for any l, so use a roomier ball. *)
  let chain_radius = 2 in
  (* probability chain: needs n l^2 p^2 < 1 *)
  let alpha = 0.9 in
  let p = float_of_int n ** -.alpha in
  let terms = if quick then 4 else 6 in
  let mc_trials = if quick then 500 else 3000 in
  let center = 0 in
  (* Table 1: exact |A_k| vs the proof's bound, radius 3. *)
  let target3 = Routing.Ball_walks.boundary_vertex ~l:count_radius in
  let count_table =
    ref
      (Stats.Table.create
         ~headers:[ "k"; "length"; "exact |A_k|"; "bound n^k l^2k l!"; "ratio" ])
  in
  let max_count_ratio = ref 0.0 in
  for k = 0 to terms - 1 do
    let length = count_radius + (2 * k) in
    let exact =
      Routing.Ball_walks.count_walks ~n ~center ~radius:count_radius ~target:target3
        ~length
    in
    let bound = Routing.Ball_walks.bound_ak ~n ~l:count_radius ~k in
    max_count_ratio := Float.max !max_count_ratio (exact /. bound);
    count_table :=
      Stats.Table.add_row !count_table
        [
          string_of_int k;
          string_of_int length;
          Printf.sprintf "%.0f" exact;
          Printf.sprintf "%.0f" bound;
          Printf.sprintf "%.4f" (exact /. bound);
        ]
  done;
  (* Table 2: the probability chain at radius 2. *)
  let l = chain_radius in
  let target = Routing.Ball_walks.boundary_vertex ~l in
  let series = Routing.Ball_walks.connection_probability_series ~n ~p ~l ~terms in
  let ratio = float_of_int n *. float_of_int (l * l) *. p *. p in
  let tail =
    (* sum_{k >= terms} p^{l+2k} |A_k|  <=  (lp)^l * ratio^terms / (1 - ratio) *)
    ((float_of_int l *. p) ** float_of_int l)
    *. (ratio ** float_of_int terms)
    /. (1.0 -. ratio)
  in
  let closed = Routing.Ball_walks.eta_closed_form ~n ~p ~l in
  let graph = Topology.Hypercube.graph n in
  let member v = Topology.Hypercube.hamming center v <= l in
  (* Monte-Carlo Pr[(v ~ e) in S] for the cut edge e = (target, flip
     target (l + 1)), tested from its endpoint inside the ball. *)
  let rows =
    Runner.grid
      ~name:(Printf.sprintf "%s;quick=%b" id quick)
      stream ~cells:1 ~trials:mc_trials
      (fun _ trial ->
        let seed = Prng.Coin.derive (Prng.Stream.seed stream) (trial + 1) in
        let world = Percolation.World.create graph ~p ~seed in
        let inside = Routing.Lower_bound.connected_within world ~member target center in
        [| (if inside then 1.0 else 0.0) |])
  in
  let mc =
    Stats.Proportion.make
      ~successes:(Array.fold_left (fun k row -> k + int_of_float row.(0)) 0 rows.(0))
      ~trials:(Array.length rows.(0))
  in
  let mc_lo, mc_hi = Stats.Proportion.wilson_ci mc in
  let chain_table =
    Stats.Table.create ~headers:[ "quantity"; "value" ]
    |> (fun t ->
         Stats.Table.add_row t
           [
             "Monte-Carlo Pr[(v~x) in S] (Wilson 95%)";
             Printf.sprintf "%.5f [%.5f, %.5f]" (Stats.Proportion.estimate mc) mc_lo
               mc_hi;
           ])
    |> (fun t ->
         Stats.Table.add_row t
           [
             Printf.sprintf "exact-count series (%d terms) + analytic tail" terms;
             Printf.sprintf "%.5f" (series +. tail);
           ])
    |> fun t ->
    Stats.Table.add_row t
      [ "closed form (lp)^l / (1 - n l^2 p^2)"; Printf.sprintf "%.5f" closed ]
  in
  let chain_holds = mc_lo <= series +. tail +. 1e-12 && series +. tail <= closed +. 1e-12 in
  let notes =
    [
      Printf.sprintf
        "n = %d; |A_k| table at radius l = %d; probability chain at l = %d with \
         alpha = %.2f (p = %.4f, n l^2 p^2 = %.3f < 1)."
        n count_radius l alpha p ratio;
      Printf.sprintf "Chain MC <= exact series + tail <= closed form: %s."
        (if chain_holds then "HOLDS" else "VIOLATED");
      "The ratio column of the first table shows how loose the proof's counting \
       bound is (it admits non-simple and repeated paths); the proof only needs \
       it finite and summable.";
    ]
  in
  let claims =
    [
      Claim.ceiling ~id:"E17/counting-bound"
        ~description:
          "max exact/bound ratio over k — |A_k| never exceeds n^k l^2k l!"
        ~max:(1.0 +. 1e-9) !max_count_ratio;
      Claim.ceiling ~id:"E17/chain-mc-vs-series"
        ~description:
          "Monte-Carlo lower CI minus (exact series + tail) — the MC estimate \
           respects the counting series"
        ~max:1e-12
        (mc_lo -. (series +. tail));
      Claim.ceiling ~id:"E17/chain-series-vs-closed"
        ~description:
          "(exact series + tail) / closed form — the analytic simplification \
           only loosens the bound"
        ~max:(1.0 +. 1e-9)
        ((series +. tail) /. closed);
    ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [
      ("exact |A_k| vs the proof's bound", !count_table);
      ("the Lemma 5 probability chain", chain_table);
    ]
