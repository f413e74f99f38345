(* Tests for the routing core: outcomes, path validation, every router
   (correctness against ground truth, probe accounting, budget handling,
   locality), and the Lemma 5 lower-bound machinery. *)

module G = Topology.Graph
module P = Percolation
module R = Routing

(* ------------------------------------------------------------------ *)
(* Outcome                                                             *)

let test_outcome_accessors () =
  let found = R.Outcome.Found { path = [ 0; 1; 3 ]; probes = 9; raw_probes = 12 } in
  Alcotest.(check int) "probes" 9 (R.Outcome.probes found);
  Alcotest.(check bool) "found" true (R.Outcome.found found);
  Alcotest.(check (option int)) "length" (Some 2) (R.Outcome.path_length found);
  let missing = R.Outcome.No_path { probes = 4 } in
  Alcotest.(check bool) "not found" false (R.Outcome.found missing);
  Alcotest.(check (option int)) "no length" None (R.Outcome.path_length missing);
  let capped = R.Outcome.Budget_exceeded { probes = 100 } in
  Alcotest.(check int) "capped probes" 100 (R.Outcome.probes capped)

let test_outcome_observation () =
  (match R.Outcome.to_observation (R.Outcome.Found { path = [ 0 ]; probes = 5; raw_probes = 5 }) with
  | Stats.Censored.Exact x -> Alcotest.(check (float 1e-9)) "exact" 5.0 x
  | Stats.Censored.At_least _ -> Alcotest.fail "expected exact");
  match R.Outcome.to_observation (R.Outcome.Budget_exceeded { probes = 7 }) with
  | Stats.Censored.At_least x -> Alcotest.(check (float 1e-9)) "censored" 7.0 x
  | Stats.Censored.Exact _ -> Alcotest.fail "expected censored"

(* ------------------------------------------------------------------ *)
(* Path                                                                *)

let cube = Topology.Hypercube.graph 4
let full_world = P.World.create cube ~p:1.0 ~seed:1L
let empty_world = P.World.create cube ~p:0.0 ~seed:1L

let test_path_validate_ok () =
  Alcotest.(check bool) "valid" true
    (R.Path.is_valid full_world ~source:0 ~target:3 [ 0; 1; 3 ])

let test_path_validate_failures () =
  let check_error expected path source target world =
    match R.Path.validate world ~source ~target path with
    | Ok () -> Alcotest.failf "expected %s" expected
    | Error failure ->
        Alcotest.(check string) "failure kind" expected
          (Format.asprintf "%a" R.Path.pp_failure failure
          |> String.split_on_char ' ' |> List.hd)
  in
  check_error "empty" [] 0 3 full_world;
  check_error "path" [ 1; 3 ] 0 3 full_world;
  (* wrong source *)
  check_error "path" [ 0; 1 ] 0 3 full_world;
  (* wrong target *)
  check_error "0" [ 0; 3 ] 0 3 full_world;
  (* not adjacent: "0 and 3 are not adjacent" *)
  check_error "edge" [ 0; 1; 3 ] 0 3 empty_world;
  (* closed edge *)
  check_error "vertex" [ 0; 1; 0; 2; 3 ] 0 3 full_world
(* repeated vertex — note 0;1;0 repeats 0 *)

let test_path_simplify () =
  Alcotest.(check (list int)) "removes cycle" [ 0; 2; 3 ]
    (R.Path.simplify [ 0; 1; 0; 2; 3 ]);
  Alcotest.(check (list int)) "identity" [ 0; 1; 3 ] (R.Path.simplify [ 0; 1; 3 ]);
  Alcotest.(check (list int)) "single" [ 5 ] (R.Path.simplify [ 5 ]);
  Alcotest.(check (list int)) "collapses to endpoint" [ 7 ]
    (R.Path.simplify [ 7; 3; 7 ])

(* ------------------------------------------------------------------ *)
(* Router.run harness                                                  *)

let test_run_validates_paths () =
  (* A bogus router returning a fake path must be rejected. *)
  let bogus =
    {
      R.Router.name = "bogus";
      policy = P.Oracle.Unrestricted;
      route =
        (fun oracle ~target ->
          ignore target;
          R.Router.found_outcome oracle [ 0; 1; 3 ]);
    }
  in
  match R.Router.run bogus empty_world ~source:0 ~target:3 with
  | _ -> Alcotest.fail "expected Invalid_route"
  | exception R.Router.Invalid_route { router = "bogus"; _ } -> ()

let test_run_budget_translation () =
  (* With p = 1 and a budget of 1, BFS must report Budget_exceeded. *)
  match R.Router.run ~budget:1 R.Local_bfs.router full_world ~source:0 ~target:15 with
  | R.Outcome.Budget_exceeded { probes } -> Alcotest.(check int) "one probe" 1 probes
  | _ -> Alcotest.fail "expected budget exceeded"

let test_run_trivial_pair () =
  match R.Router.run R.Local_bfs.router full_world ~source:5 ~target:5 with
  | R.Outcome.Found { path; probes; _ } ->
      Alcotest.(check (list int)) "trivial" [ 5 ] path;
      Alcotest.(check int) "free" 0 probes
  | _ -> Alcotest.fail "expected trivial success"

(* ------------------------------------------------------------------ *)
(* Router correctness against ground truth                             *)

(* Routers that perform a complete search: Found iff Reveal says
   connected; No_path iff disconnected. *)
let check_router_against_truth router world ~source ~target =
  let outcome = R.Router.run router world ~source ~target in
  let truth = P.Reveal.connected world source target in
  match (outcome, truth) with
  | R.Outcome.Found { path; probes; _ }, P.Reveal.Connected _ ->
      Alcotest.(check bool) "path valid" true
        (R.Path.is_valid world ~source ~target path);
      Alcotest.(check bool) "probes >= path edges" true
        (probes >= List.length path - 1)
  | R.Outcome.No_path _, P.Reveal.Disconnected -> ()
  | R.Outcome.Found _, P.Reveal.Disconnected ->
      Alcotest.fail "router found a path in a disconnected world"
  | R.Outcome.No_path _, P.Reveal.Connected _ ->
      Alcotest.fail "router missed an existing path"
  | R.Outcome.Budget_exceeded _, _ -> Alcotest.fail "no budget set"
  | _, P.Reveal.Unknown -> Alcotest.fail "no reveal limit set"

let many_worlds ~count f =
  for trial = 1 to count do
    let seed = Prng.Coin.derive 4242L trial in
    f seed
  done

let test_local_bfs_correct () =
  many_worlds ~count:60 (fun seed ->
      let world = P.World.create cube ~p:0.5 ~seed in
      check_router_against_truth R.Local_bfs.router world ~source:0 ~target:15)

let test_local_bfs_randomized_correct () =
  let stream = Prng.Stream.create 3L in
  many_worlds ~count:40 (fun seed ->
      let world = P.World.create cube ~p:0.5 ~seed in
      check_router_against_truth
        (R.Local_bfs.router_randomized stream)
        world ~source:0 ~target:15)

let test_greedy_correct () =
  many_worlds ~count:60 (fun seed ->
      let world = P.World.create cube ~p:0.5 ~seed in
      check_router_against_truth R.Greedy.router world ~source:0 ~target:15)

let test_greedy_fault_free_is_direct () =
  (* Without faults greedy walks a shortest path: probes ~ n per step. *)
  match R.Router.run R.Greedy.router full_world ~source:0 ~target:15 with
  | R.Outcome.Found { path; probes; _ } ->
      Alcotest.(check int) "shortest path" 5 (List.length path);
      Alcotest.(check bool) (Printf.sprintf "modest probes (%d)" probes) true
        (probes <= 4 * 4)
  | _ -> Alcotest.fail "expected success"

let test_greedy_requires_metric () =
  let tree = Topology.Double_tree.graph 3 in
  let world = P.World.create tree ~p:1.0 ~seed:1L in
  match R.Router.run R.Greedy.router world ~source:0 ~target:5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_path_follow_correct () =
  many_worlds ~count:60 (fun seed ->
      let world = P.World.create cube ~p:0.5 ~seed in
      let router = R.Path_follow.hypercube ~n:4 ~source:0 ~target:15 in
      check_router_against_truth router world ~source:0 ~target:15)

let test_path_follow_fault_free_follows_backbone () =
  let router = R.Path_follow.hypercube ~n:4 ~source:0 ~target:15 in
  match R.Router.run router full_world ~source:0 ~target:15 with
  | R.Outcome.Found { path; _ } -> Alcotest.(check int) "backbone length" 5 (List.length path)
  | _ -> Alcotest.fail "expected success"

let test_path_follow_mesh_correct () =
  let d = 2 and m = 8 in
  let grid = Topology.Mesh.graph ~d ~m in
  let source = Topology.Mesh.index ~m [| 1; 1 |] in
  let target = Topology.Mesh.index ~m [| 6; 6 |] in
  many_worlds ~count:60 (fun seed ->
      let world = P.World.create grid ~p:0.7 ~seed in
      let router = R.Path_follow.mesh ~d ~m ~source ~target in
      check_router_against_truth router world ~source ~target)

let test_path_follow_torus_correct () =
  let d = 2 and m = 7 in
  let torus = Topology.Torus.graph ~d ~m in
  let source = 0 in
  let target = Topology.Mesh.index ~m [| 5; 5 |] in
  many_worlds ~count:40 (fun seed ->
      let world = P.World.create torus ~p:0.7 ~seed in
      let router = R.Path_follow.torus ~d ~m ~source ~target in
      check_router_against_truth router world ~source ~target)

let test_path_follow_empty_backbone () =
  Alcotest.check_raises "empty" (Invalid_argument "Path_follow.router: empty backbone")
    (fun () -> ignore (R.Path_follow.router ~backbone:[||]))

let test_bidirectional_correct () =
  many_worlds ~count:60 (fun seed ->
      let world = P.World.create cube ~p:0.5 ~seed in
      check_router_against_truth R.Bidirectional.router world ~source:0 ~target:15);
  (* Also on the complete graph, its natural habitat. *)
  let k = Topology.Complete.graph 30 in
  many_worlds ~count:30 (fun seed ->
      let world = P.World.create k ~p:0.1 ~seed in
      check_router_against_truth R.Bidirectional.router world ~source:0 ~target:29)

let test_bidirectional_rejects_local_oracle () =
  let o = P.Oracle.create ~policy:P.Oracle.Local full_world ~source:0 in
  match R.Bidirectional.router.R.Router.route o ~target:15 with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_tree_pair_dfs_correct () =
  let n = 5 in
  let tree = Topology.Double_tree.graph n in
  let source = Topology.Double_tree.root1 in
  let target = Topology.Double_tree.root2 ~n in
  let router = R.Tree_pair_dfs.router ~n in
  let found = ref 0 and missing = ref 0 in
  many_worlds ~count:80 (fun seed ->
      let world = P.World.create tree ~p:0.85 ~seed in
      let outcome = R.Router.run router world ~source ~target in
      let truth = P.Reveal.connected world source target in
      match (outcome, truth) with
      | R.Outcome.Found { path; _ }, P.Reveal.Connected _ ->
          incr found;
          Alcotest.(check bool) "valid" true (R.Path.is_valid world ~source ~target path);
          Alcotest.(check int) "length 2n" (2 * n) (List.length path - 1)
      | R.Outcome.No_path _, P.Reveal.Disconnected -> incr missing
      | R.Outcome.Found _, P.Reveal.Disconnected ->
          Alcotest.fail "found path in disconnected world"
      | R.Outcome.No_path _, P.Reveal.Connected _ ->
          Alcotest.fail "missed an existing root path"
      | _, _ -> Alcotest.fail "unexpected outcome");
  Alcotest.(check bool) "mixed outcomes exercised" true (!found > 0 && !missing > 0)

let test_tree_pair_dfs_reverse_direction () =
  let n = 4 in
  let tree = Topology.Double_tree.graph n in
  let world = P.World.create tree ~p:1.0 ~seed:1L in
  let router = R.Tree_pair_dfs.router ~n in
  match
    R.Router.run router world ~source:(Topology.Double_tree.root2 ~n)
      ~target:Topology.Double_tree.root1
  with
  | R.Outcome.Found { path; _ } ->
      Alcotest.(check int) "length" ((2 * n) + 1) (List.length path)
  | _ -> Alcotest.fail "expected success"

let test_tree_pair_dfs_wrong_pair () =
  let n = 4 in
  let tree = Topology.Double_tree.graph n in
  let world = P.World.create tree ~p:1.0 ~seed:1L in
  let router = R.Tree_pair_dfs.router ~n in
  match R.Router.run router world ~source:0 ~target:5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_tree_pair_linear_growth () =
  (* Oracle probes on TT_n at p=0.9 should grow roughly linearly: the
     ratio probes/n must stay small for n up to 12. *)
  let stream = Prng.Stream.create 31L in
  List.iter
    (fun n ->
      let tree = Topology.Double_tree.graph n in
      let source = Topology.Double_tree.root1 in
      let target = Topology.Double_tree.root2 ~n in
      let router = R.Tree_pair_dfs.router ~n in
      let rec routed_probes attempt =
        if attempt > 50 then None
        else begin
          let seed = Prng.Coin.derive (Prng.Stream.seed stream) (attempt + (n * 100)) in
          let world = P.World.create tree ~p:0.9 ~seed in
          match P.Reveal.connected world source target with
          | P.Reveal.Connected _ ->
              Some (R.Outcome.probes (R.Router.run router world ~source ~target))
          | P.Reveal.Disconnected | P.Reveal.Unknown -> routed_probes (attempt + 1)
        end
      in
      match routed_probes 0 with
      | Some probes ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d probes=%d small" n probes)
            true
            (probes <= 40 * n)
      | None -> Alcotest.fail "no connected world found")
    [ 4; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* Probe accounting invariants                                         *)

let test_probe_counts_truthful () =
  (* The outcome's probe count must equal the oracle's distinct count:
     run through Router.run and compare against a manual oracle replay. *)
  many_worlds ~count:20 (fun seed ->
      let world = P.World.create cube ~p:0.5 ~seed in
      match R.Router.run R.Local_bfs.router world ~source:0 ~target:15 with
      | R.Outcome.Found { probes; raw_probes; _ } ->
          Alcotest.(check bool) "distinct <= raw" true (probes <= raw_probes)
      | R.Outcome.No_path { probes } ->
          (* Exhaustive search: probed every edge reachable. *)
          Alcotest.(check bool) "bounded by edges" true (probes <= G.edge_count cube)
      | R.Outcome.Budget_exceeded _ -> Alcotest.fail "no budget")

let test_local_routers_obey_locality () =
  (* Running local routers through a Local-policy oracle raises on any
     locality violation, so termination without exception is the test. *)
  many_worlds ~count:40 (fun seed ->
      let world = P.World.create cube ~p:0.4 ~seed in
      ignore (R.Router.run R.Local_bfs.router world ~source:0 ~target:15);
      ignore (R.Router.run R.Greedy.router world ~source:0 ~target:15);
      let segment = R.Path_follow.hypercube ~n:4 ~source:0 ~target:15 in
      ignore (R.Router.run segment world ~source:0 ~target:15))

(* ------------------------------------------------------------------ *)
(* Lower bound machinery                                               *)

let test_bound_evaluation () =
  Alcotest.(check (float 1e-9)) "basic" 0.5
    (R.Lower_bound.bound ~t:5.0 ~eta:0.1 ~pr_path_in_s:0.0 ~pr_connected:1.0);
  Alcotest.(check (float 1e-9)) "clamped" 1.0
    (R.Lower_bound.bound ~t:100.0 ~eta:1.0 ~pr_path_in_s:0.0 ~pr_connected:1.0);
  Alcotest.check_raises "bad denominator"
    (Invalid_argument "Lower_bound.bound: pr_connected must be positive") (fun () ->
      ignore (R.Lower_bound.bound ~t:1.0 ~eta:0.1 ~pr_path_in_s:0.0 ~pr_connected:0.0))

let test_eta_formulas () =
  Alcotest.(check (float 1e-9)) "theta" 0.25 (R.Lower_bound.eta_theta ~p:0.25);
  Alcotest.(check (float 1e-9)) "double tree" (0.8 ** 5.0)
    (R.Lower_bound.eta_double_tree ~p:0.8 ~n:5);
  (* Hypercube eta must be finite and tiny for alpha > 1/2 + beta. *)
  let eta = R.Lower_bound.eta_hypercube ~alpha:0.8 ~beta:0.2 ~n:64 in
  Alcotest.(check bool) "tiny" true (eta > 0.0 && eta < 0.01);
  Alcotest.check_raises "divergent"
    (Invalid_argument
       "Lower_bound.eta_hypercube: series diverges (need beta < alpha - 1/2)")
    (fun () -> ignore (R.Lower_bound.eta_hypercube ~alpha:0.5 ~beta:0.3 ~n:64))

let test_connected_within () =
  let theta = Topology.Theta.graph 5 in
  let world = P.World.create theta ~p:1.0 ~seed:1L in
  let member v = v <> Topology.Theta.endpoint_u in
  (* v is connected to every middle within S. *)
  Alcotest.(check bool) "inside" true
    (R.Lower_bound.connected_within world ~member (Topology.Theta.middle 0)
       Topology.Theta.endpoint_v);
  (* u is outside S. *)
  Alcotest.(check bool) "outside" false
    (R.Lower_bound.connected_within world ~member Topology.Theta.endpoint_u
       Topology.Theta.endpoint_v)

(* Monte-Carlo Pr[(inner ~ target) in S] as E17 measures it: one grid
   cell, world seeds Coin.derive (seed stream) t for t from 1. *)
let estimate_eta stream ~trials ~graph ~p ~member ~inner ~target =
  let outcomes =
    (Experiments.Runner.grid ~name:"eta" stream ~cells:1 ~trials (fun _ trial ->
         let seed = Prng.Coin.derive (Prng.Stream.seed stream) (trial + 1) in
         let world = P.World.create graph ~p ~seed in
         [|
           (if R.Lower_bound.connected_within world ~member inner target then 1.0
            else 0.0);
         |]))
      .(0)
  in
  Stats.Proportion.make
    ~successes:
      (Array.fold_left (fun k row -> if row.(0) > 0.5 then k + 1 else k) 0 outcomes)
    ~trials:(Array.length outcomes)

let test_estimate_eta_matches_theta_formula () =
  (* Lemma 5's eta for the theta graph is exactly p: the middle endpoint
     of a cut edge reaches v within S iff edge (middle, v) is open. *)
  let d = 30 in
  let p = 0.3 in
  let graph = Topology.Theta.graph d in
  let member v = v <> Topology.Theta.endpoint_u in
  let stream = Prng.Stream.create 61L in
  let estimate =
    (* The cut edge (u, m_0)'s endpoint inside S is the middle m_0. *)
    estimate_eta stream ~trials:800 ~graph ~p ~member
      ~inner:(Topology.Theta.middle 0) ~target:Topology.Theta.endpoint_v
  in
  Alcotest.(check bool) "wilson interval covers p" true
    (Stats.Proportion.within estimate ~lo:p ~hi:p)

let test_estimate_eta_matches_double_tree_formula () =
  (* For TT_n with S = second tree, eta = p^n exactly (unique branch). *)
  let n = 4 in
  let p = 0.7 in
  let graph = Topology.Double_tree.graph n in
  let member v =
    Topology.Double_tree.role_of ~n v <> Topology.Double_tree.Internal1
  in
  let leaf = Topology.Double_tree.leaf ~n 0 in
  let parent_in_tree1 =
    (* The tree-1 parent of leaf 0 (outside S). *)
    Array.to_list (graph.G.neighbors leaf)
    |> List.find (fun w -> Topology.Double_tree.role_of ~n w = Topology.Double_tree.Internal1)
  in
  (* The cut edge (parent_in_tree1, leaf) crosses into S at the leaf. *)
  Alcotest.(check (pair bool bool)) "cut edge crosses S" (false, true)
    (member parent_in_tree1, member leaf);
  let stream = Prng.Stream.create 62L in
  let estimate =
    estimate_eta stream ~trials:2000 ~graph ~p ~member ~inner:leaf
      ~target:(Topology.Double_tree.root2 ~n)
  in
  let expected = R.Lower_bound.eta_double_tree ~p ~n in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f covers p^n = %.3f"
       (Stats.Proportion.estimate estimate) expected)
    true
    (Stats.Proportion.within estimate ~lo:expected ~hi:expected)

(* ------------------------------------------------------------------ *)
(* Ball walks (Theorem 3(i) counting lemma)                            *)

let test_ball_walks_base_case () =
  (* Length-l walks from centre to a distance-l boundary vertex are
     exactly the l! coordinate orderings. *)
  List.iter
    (fun l ->
      let target = R.Ball_walks.boundary_vertex ~l in
      let exact =
        R.Ball_walks.count_walks ~n:8 ~center:0 ~radius:l ~target ~length:l
      in
      let rec factorial i = if i <= 1 then 1.0 else float_of_int i *. factorial (i - 1) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "l=%d" l) (factorial l) exact)
    [ 1; 2; 3; 4 ]

let test_ball_walks_parity () =
  (* Walks of wrong parity cannot reach the target. *)
  let target = R.Ball_walks.boundary_vertex ~l:2 in
  Alcotest.(check (float 1e-9)) "odd length" 0.0
    (R.Ball_walks.count_walks ~n:6 ~center:0 ~radius:2 ~target ~length:3);
  Alcotest.(check (float 1e-9)) "too short" 0.0
    (R.Ball_walks.count_walks ~n:6 ~center:0 ~radius:2 ~target ~length:0)

let test_ball_walks_bound_respected () =
  (* The proof's bound |A_k| <= n^k l^{2k} l! must dominate the exact
     count for every k — on several (n, l). *)
  List.iter
    (fun (n, l) ->
      let target = R.Ball_walks.boundary_vertex ~l in
      for k = 0 to 4 do
        let exact =
          R.Ball_walks.count_walks ~n ~center:0 ~radius:l ~target
            ~length:(l + (2 * k))
        in
        let bound = R.Ball_walks.bound_ak ~n ~l ~k in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d l=%d k=%d: %.0f <= %.0f" n l k exact bound)
          true (exact <= bound)
      done)
    [ (6, 2); (8, 3); (10, 2); (12, 3) ]

let test_ball_walks_brute_force () =
  (* Cross-check the DP against explicit enumeration on a tiny case. *)
  let n = 4 and radius = 2 in
  let target = R.Ball_walks.boundary_vertex ~l:2 in
  let member v = Topology.Hypercube.hamming 0 v <= radius in
  let rec enumerate v remaining =
    if remaining = 0 then if v = target then 1 else 0
    else begin
      let total = ref 0 in
      for bit = 0 to n - 1 do
        let w = Topology.Hypercube.flip v bit in
        if member w then total := !total + enumerate w (remaining - 1)
      done;
      !total
    end
  in
  List.iter
    (fun length ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "length %d" length)
        (float_of_int (enumerate 0 length))
        (R.Ball_walks.count_walks ~n ~center:0 ~radius ~target ~length))
    [ 2; 4; 6 ]

let test_ball_walks_series_below_closed_form () =
  (* Exact-count series must sit below the closed form whenever the
     closed form converges. *)
  let n = 10 and l = 2 in
  let p = 0.12 in
  let series = R.Ball_walks.connection_probability_series ~n ~p ~l ~terms:6 in
  let closed = R.Ball_walks.eta_closed_form ~n ~p ~l in
  Alcotest.(check bool) "series <= closed" true (series <= closed)

let test_ball_walks_errors () =
  Alcotest.check_raises "target outside"
    (Invalid_argument "Ball_walks.count_walks: target outside the ball") (fun () ->
      ignore (R.Ball_walks.count_walks ~n:6 ~center:0 ~radius:1 ~target:7 ~length:3));
  Alcotest.check_raises "divergent"
    (Invalid_argument "Ball_walks.eta_closed_form: series diverges") (fun () ->
      ignore (R.Ball_walks.eta_closed_form ~n:10 ~p:0.5 ~l:3))

(* ------------------------------------------------------------------ *)
(* Good vertices (Theorem 3(ii) scaffolding)                           *)

let test_good_vertex_thresholds () =
  Alcotest.(check (float 1e-9)) "degree" 3.0
    (R.Good_vertex.degree_threshold ~n:10 ~p:0.6);
  Alcotest.(check (float 1e-9)) "ball" 9.0 (R.Good_vertex.ball_threshold ~n:10 ~p:0.6)

let test_good_vertex_full_world () =
  let g = Topology.Hypercube.graph 6 in
  let w = P.World.create g ~p:1.0 ~seed:1L in
  for v = 0 to 63 do
    Alcotest.(check bool) "all good" true (R.Good_vertex.is_good w v)
  done;
  match R.Good_vertex.good_pair_distance w 0 7 with
  | `Distance d -> Alcotest.(check int) "distance 3" 3 d
  | `Not_good | `Disconnected -> Alcotest.fail "good pair expected"

let test_good_vertex_empty_world () =
  let g = Topology.Hypercube.graph 6 in
  let w = P.World.create g ~p:0.0 ~seed:1L in
  for v = 0 to 63 do
    Alcotest.(check bool) "none good" false (R.Good_vertex.is_good w v)
  done;
  Alcotest.(check bool) "pair not good" true
    (R.Good_vertex.good_pair_distance w 0 7 = `Not_good)

let test_good_vertex_fraction_monotone () =
  let g = Topology.Hypercube.graph 8 in
  let fraction p =
    let w = P.World.create g ~p ~seed:3L in
    Stats.Proportion.estimate
      (R.Good_vertex.fraction_good (Prng.Stream.create 5L) w ~samples:150)
  in
  Alcotest.(check bool) "richer worlds have more good vertices" true
    (fraction 0.9 >= fraction 0.35)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let qcheck_tests =
  let open QCheck in
  let simplify_tests =
    [
      Test.make ~name:"simplify: simple path with same endpoints" ~count:300
        (list_of_size (Gen.int_range 0 40) (int_bound 3))
        (fun flips ->
          (* A random walk on H_4 encoded as bit flips from vertex 0. *)
          let walk =
            List.fold_left (fun acc bit ->
                match acc with
                | v :: _ -> Topology.Hypercube.flip v bit :: acc
                | [] -> assert false)
              [ 0 ] flips
            |> List.rev
          in
          let simplified = R.Path.simplify walk in
          let first = List.hd simplified in
          let rec last = function [ x ] -> x | _ :: r -> last r | [] -> assert false in
          let seen = Hashtbl.create 16 in
          let simple =
            List.for_all
              (fun v ->
                if Hashtbl.mem seen v then false
                else begin
                  Hashtbl.replace seen v ();
                  true
                end)
              simplified
          in
          let rec adjacent = function
            | a :: (b :: _ as rest) ->
                Topology.Hypercube.hamming a b = 1 && adjacent rest
            | [ _ ] | [] -> true
          in
          first = List.hd walk && last simplified = last walk && simple
          && adjacent simplified);
    ]
  in
  let routers =
    [
      ("bfs", fun ~source:_ ~target:_ -> R.Local_bfs.router);
      ("greedy", fun ~source:_ ~target:_ -> R.Greedy.router);
      ("segment", fun ~source ~target -> R.Path_follow.hypercube ~n:4 ~source ~target);
      ("bidi", fun ~source:_ ~target:_ -> R.Bidirectional.router);
    ]
  in
  List.map
    (fun (name, make_router) ->
      Test.make
        ~name:(Printf.sprintf "%s: outcome matches ground truth" name)
        ~count:150
        (triple int64 (int_bound 15) (int_bound 15))
        (fun (seed, source, target) ->
          QCheck.assume (source <> target);
          let world = P.World.create cube ~p:0.45 ~seed in
          let router = make_router ~source ~target in
          let outcome = R.Router.run router world ~source ~target in
          let truth = P.Reveal.connected world source target in
          match (outcome, truth) with
          | R.Outcome.Found { path; _ }, P.Reveal.Connected _ ->
              R.Path.is_valid world ~source ~target path
          | R.Outcome.No_path _, P.Reveal.Disconnected -> true
          | _, _ -> false))
    routers
  @ simplify_tests

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "routing"
    [
      ( "outcome",
        [ case "accessors" test_outcome_accessors; case "observation" test_outcome_observation ]
      );
      ( "path",
        [
          case "validate ok" test_path_validate_ok;
          case "validate failures" test_path_validate_failures;
          case "simplify" test_path_simplify;
        ] );
      ( "harness",
        [
          case "validates paths" test_run_validates_paths;
          case "budget translation" test_run_budget_translation;
          case "trivial pair" test_run_trivial_pair;
        ] );
      ( "local bfs",
        [
          case "correct" test_local_bfs_correct;
          case "randomized correct" test_local_bfs_randomized_correct;
        ] );
      ( "greedy",
        [
          case "correct" test_greedy_correct;
          case "fault-free direct" test_greedy_fault_free_is_direct;
          case "requires metric" test_greedy_requires_metric;
        ] );
      ( "path follow",
        [
          case "hypercube correct" test_path_follow_correct;
          case "fault-free backbone" test_path_follow_fault_free_follows_backbone;
          case "mesh correct" test_path_follow_mesh_correct;
          case "torus correct" test_path_follow_torus_correct;
          case "empty backbone" test_path_follow_empty_backbone;
        ] );
      ( "bidirectional",
        [
          case "correct" test_bidirectional_correct;
          case "rejects local oracle" test_bidirectional_rejects_local_oracle;
        ] );
      ( "tree pair dfs",
        [
          case "correct" test_tree_pair_dfs_correct;
          case "reverse direction" test_tree_pair_dfs_reverse_direction;
          case "wrong pair" test_tree_pair_dfs_wrong_pair;
          case "linear growth" test_tree_pair_linear_growth;
        ] );
      ( "accounting",
        [
          case "truthful counts" test_probe_counts_truthful;
          case "locality obeyed" test_local_routers_obey_locality;
        ] );
      ( "lower bound",
        [
          case "bound evaluation" test_bound_evaluation;
          case "eta formulas" test_eta_formulas;
          case "connected within" test_connected_within;
          case "estimate eta (theta)" test_estimate_eta_matches_theta_formula;
          case "estimate eta (double tree)" test_estimate_eta_matches_double_tree_formula;
        ] );
      ( "good vertices",
        [
          case "thresholds" test_good_vertex_thresholds;
          case "full world" test_good_vertex_full_world;
          case "empty world" test_good_vertex_empty_world;
          case "fraction monotone" test_good_vertex_fraction_monotone;
        ] );
      ( "ball walks",
        [
          case "base case l!" test_ball_walks_base_case;
          case "parity" test_ball_walks_parity;
          case "bound respected" test_ball_walks_bound_respected;
          case "brute force" test_ball_walks_brute_force;
          case "series below closed form" test_ball_walks_series_below_closed_form;
          case "errors" test_ball_walks_errors;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
