(* Tests for the percolation library: union-find, worlds, the probe
   oracle (counting, locality, budget), reveal, clusters, chemical
   distance and threshold estimation. *)

module G = Topology.Graph
module P = Percolation

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)

let test_uf_basics () =
  let uf = P.Union_find.create 10 in
  Alcotest.(check int) "sets" 10 (P.Union_find.set_count uf);
  Alcotest.(check bool) "fresh union" true (P.Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union" false (P.Union_find.union uf 0 1);
  Alcotest.(check bool) "same" true (P.Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (P.Union_find.same uf 0 2);
  Alcotest.(check int) "size" 2 (P.Union_find.size uf 1);
  Alcotest.(check int) "sets after" 9 (P.Union_find.set_count uf);
  Alcotest.(check int) "elements" 10 (P.Union_find.element_count uf)

let test_uf_transitive () =
  let uf = P.Union_find.create 6 in
  ignore (P.Union_find.union uf 0 1);
  ignore (P.Union_find.union uf 2 3);
  ignore (P.Union_find.union uf 1 2);
  Alcotest.(check bool) "0~3" true (P.Union_find.same uf 0 3);
  Alcotest.(check int) "size 4" 4 (P.Union_find.size uf 0)

let test_uf_chain () =
  let n = 1000 in
  let uf = P.Union_find.create n in
  for i = 0 to n - 2 do
    ignore (P.Union_find.union uf i (i + 1))
  done;
  Alcotest.(check int) "one set" 1 (P.Union_find.set_count uf);
  Alcotest.(check int) "full size" n (P.Union_find.size uf (n / 2))

let test_uf_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Union_find.create: negative size")
    (fun () -> ignore (P.Union_find.create (-1)))

(* ------------------------------------------------------------------ *)
(* World                                                               *)

let hypercube6 = Topology.Hypercube.graph 6

let test_world_determinism () =
  let w1 = P.World.create hypercube6 ~p:0.5 ~seed:42L in
  let w2 = P.World.create hypercube6 ~p:0.5 ~seed:42L in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "same state" (P.World.is_open w1 u v) (P.World.is_open w2 u v))

let test_world_extremes () =
  let all_open = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let all_closed = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "open at 1" true (P.World.is_open all_open u v);
      Alcotest.(check bool) "closed at 0" false (P.World.is_open all_closed u v))

let test_world_monotone_coupling () =
  (* Worlds at one seed nest along p on every draw: a subset relation,
     not a statistical trend. *)
  let worlds =
    List.map (fun p -> P.World.create hypercube6 ~p ~seed:7L) [ 0.1; 0.3; 0.5; 0.7; 0.9 ]
  in
  let rec nested = function
    | lo :: (hi :: _ as rest) ->
        G.iter_edges hypercube6 (fun u v ->
            if P.World.is_open lo u v then
              Alcotest.(check bool) "coupled" true (P.World.is_open hi u v));
        nested rest
    | [ _ ] | [] -> ()
  in
  nested worlds

let test_world_open_rate () =
  let w = P.World.create hypercube6 ~p:0.4 ~seed:9L in
  let total = G.edge_count hypercube6 in
  let opened = P.World.count_open_edges w in
  let rate = float_of_int opened /. float_of_int total in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.4" rate) true
    (rate > 0.32 && rate < 0.48)

let test_world_open_neighbors () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:11L in
  for v = 0 to 63 do
    let opened = P.World.open_neighbors w v in
    Array.iter
      (fun u -> Alcotest.(check bool) "consistent" true (P.World.is_open w u v))
      opened;
    Alcotest.(check int) "degree" (Array.length opened) (P.World.open_degree w v)
  done

let test_world_invalid_p () =
  Alcotest.check_raises "p>1" (Invalid_argument "World.create: p outside [0,1]")
    (fun () -> ignore (P.World.create hypercube6 ~p:1.5 ~seed:0L))

let test_world_symmetric () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:13L in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "symmetric" (P.World.is_open w u v) (P.World.is_open w v u))

let test_world_prefilled_equals_fresh () =
  (* Prefill materialises every open-adjacency row up front, as serve
     does for its resident worlds; the world must read exactly as a
     fresh one does. *)
  let g = Topology.Hypercube.graph 4 in
  let prefilled = P.World.create g ~p:0.37 ~seed:9L in
  P.World.prefill prefilled;
  let fresh = P.World.create g ~p:0.37 ~seed:9L in
  G.iter_edges g (fun u v ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %d-%d" u v)
        (P.World.is_open fresh u v)
        (P.World.is_open prefilled u v));
  for v = 0 to g.G.vertex_count - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d" v)
      (P.World.open_neighbors fresh v)
      (P.World.open_neighbors prefilled v)
  done

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_counting () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 1 0);
  ignore (P.Oracle.probe o 0 2);
  Alcotest.(check int) "distinct" 2 (P.Oracle.distinct_probes o);
  Alcotest.(check int) "raw" 4 (P.Oracle.raw_probes o)

let test_oracle_consistency_with_world () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:21L in
  let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "matches world" (P.World.is_open w u v) (P.Oracle.probe o u v))

let test_oracle_locality_enforced () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  (* Edge (5,7) has no endpoint reached yet. *)
  (match P.Oracle.probe o 5 7 with
  | _ -> Alcotest.fail "expected locality violation"
  | exception P.Oracle.Locality_violation (5, 7) -> ());
  (* Probing from the source is fine and extends the reach. *)
  Alcotest.(check bool) "open" true (P.Oracle.probe o 0 1);
  Alcotest.(check bool) "1 reached" true (P.Oracle.reached o 1);
  Alcotest.(check bool) "open" true (P.Oracle.probe o 1 5);
  Alcotest.(check bool) "now allowed" true (P.Oracle.probe o 5 7)

let test_oracle_locality_closed_edge_no_extension () =
  (* A closed probe must not extend the reached set. *)
  let closed = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  let o = P.Oracle.create closed ~source:0 in
  Alcotest.(check bool) "closed" false (P.Oracle.probe o 0 1);
  Alcotest.(check bool) "1 not reached" false (P.Oracle.reached o 1);
  match P.Oracle.probe o 1 3 with
  | _ -> Alcotest.fail "expected locality violation"
  | exception P.Oracle.Locality_violation _ -> ()

let test_oracle_unrestricted_any_edge () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:3L in
  let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
  ignore (P.Oracle.probe o 40 41);
  Alcotest.(check int) "counted" 1 (P.Oracle.distinct_probes o)

let test_oracle_non_edge_rejected () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:3L in
  let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
  (match P.Oracle.probe o 0 3 with
  | _ -> Alcotest.fail "non-edge accepted"
  | exception G.Not_an_edge (0, 3) -> ());
  Alcotest.(check int) "not counted" 0 (P.Oracle.distinct_probes o)

let test_oracle_budget () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create ~budget:2 w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 0 2);
  Alcotest.(check (option int)) "spent" (Some 0) (P.Oracle.budget_remaining o);
  (* Re-probing a cached edge stays free... *)
  ignore (P.Oracle.probe o 0 1);
  (* ...but a fresh edge raises. *)
  (match P.Oracle.probe o 0 4 with
  | _ -> Alcotest.fail "expected budget exhaustion"
  | exception P.Oracle.Budget_exhausted -> ());
  Alcotest.(check int) "distinct unchanged" 2 (P.Oracle.distinct_probes o)

let test_oracle_budget_invalid () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Oracle.create: budget must be positive") (fun () ->
      ignore (P.Oracle.create ~budget:0 w ~source:0))

let test_oracle_path_to () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 1 3);
  ignore (P.Oracle.probe o 3 7);
  (match P.Oracle.path_to o 7 with
  | Some path ->
      Alcotest.(check (list int)) "path" [ 0; 1; 3; 7 ] path
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check bool) "unreached" true (P.Oracle.path_to o 63 = None);
  Alcotest.(check (list int)) "source path" [ 0 ] (Option.get (P.Oracle.path_to o 0))

let test_oracle_reached_bookkeeping () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  Alcotest.(check int) "initial" 1 (P.Oracle.reached_count o);
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 0 2);
  Alcotest.(check int) "three" 3 (P.Oracle.reached_count o);
  let vertices = List.sort compare (P.Oracle.reached_vertices o) in
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] vertices

let test_oracle_deferred_extension () =
  (* An open edge probed while only one endpoint is reached, then touched
     again after the other side becomes relevant, must keep reach
     consistent (cached probes can still extend). *)
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 1 3);
  (* Probe (3,2): extends reach to 2 via 3. *)
  ignore (P.Oracle.probe o 3 2);
  Alcotest.(check bool) "2 reached" true (P.Oracle.reached o 2);
  match P.Oracle.path_to o 2 with
  | Some path ->
      Alcotest.(check (list int)) "path via 3" [ 0; 1; 3; 2 ] path
  | None -> Alcotest.fail "expected path"

let test_oracle_unrestricted_reach () =
  (* Reachability extends along any open probed edge whatever the
     policy, on both stores: an edge probed before either endpoint is
     reached extends nothing then, and extends once probed again (a
     memo hit) after one endpoint is reached. *)
  let g = Topology.Hypercube.graph 4 in
  List.iter
    (fun (name, w) ->
      let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
      ignore (P.Oracle.probe o 0 1);
      ignore (P.Oracle.probe o 1 3);
      Alcotest.(check bool) (name ^ ": 1 reached") true (P.Oracle.reached o 1);
      Alcotest.(check bool) (name ^ ": 3 reached") true (P.Oracle.reached o 3);
      Alcotest.(check (option (list int))) (name ^ ": path to 3") (Some [ 0; 1; 3 ])
        (P.Oracle.path_to o 3);
      ignore (P.Oracle.probe o 6 7);
      Alcotest.(check bool) (name ^ ": 6 not yet") false (P.Oracle.reached o 6);
      ignore (P.Oracle.probe o 3 7);
      Alcotest.(check bool) (name ^ ": 7 reached") true (P.Oracle.reached o 7);
      Alcotest.(check bool) (name ^ ": 6 still not") false (P.Oracle.reached o 6);
      ignore (P.Oracle.probe o 6 7);
      Alcotest.(check (option (list int))) (name ^ ": path to 6") (Some [ 0; 1; 3; 7; 6 ])
        (P.Oracle.path_to o 6);
      Alcotest.(check int) (name ^ ": distinct") 4 (P.Oracle.distinct_probes o);
      Alcotest.(check int) (name ^ ": reached count") 5 (P.Oracle.reached_count o))
    [
      ("cached", P.World.create g ~p:1.0 ~seed:1L);
      ("lazy", P.World.create ~cache:false g ~p:1.0 ~seed:1L);
    ]

(* ------------------------------------------------------------------ *)
(* Reveal                                                              *)

let test_reveal_connected_full_world () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  (match P.Reveal.connected w 0 63 with
  | P.Reveal.Connected d -> Alcotest.(check int) "distance" 6 d
  | _ -> Alcotest.fail "expected connected");
  match P.Reveal.connected w 5 5 with
  | P.Reveal.Connected d -> Alcotest.(check int) "self" 0 d
  | _ -> Alcotest.fail "self connected"

let test_reveal_disconnected_empty_world () =
  let w = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  match P.Reveal.connected w 0 63 with
  | P.Reveal.Disconnected -> ()
  | _ -> Alcotest.fail "expected disconnected"

let test_reveal_limit () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  match P.Reveal.connected ~limit:3 w 0 63 with
  | P.Reveal.Unknown -> ()
  | _ -> Alcotest.fail "expected unknown under tiny limit"

let test_reveal_matches_clusters () =
  (* Reveal's pairwise verdicts must agree with the union-find census. *)
  let w = P.World.create hypercube6 ~p:0.45 ~seed:31L in
  let uf = P.Clusters.components w in
  let stream = Prng.Stream.create 3L in
  for _ = 1 to 100 do
    let u, v = Prng.Sample.distinct_pair stream 64 in
    let by_reveal =
      match P.Reveal.connected w u v with
      | P.Reveal.Connected _ -> true
      | P.Reveal.Disconnected -> false
      | P.Reveal.Unknown -> Alcotest.fail "no limit set"
    in
    Alcotest.(check bool)
      (Printf.sprintf "agree on (%d,%d)" u v)
      (P.Union_find.same uf u v) by_reveal
  done

let test_reveal_cluster_of () =
  let w = P.World.create hypercube6 ~p:0.45 ~seed:31L in
  let members, truncated = P.Reveal.cluster_of w 0 in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check bool) "contains 0" true (List.mem 0 members);
  let size, _ = P.Reveal.cluster_size w 0 in
  Alcotest.(check int) "size matches" (List.length members) size;
  let uf = P.Clusters.components w in
  Alcotest.(check int) "matches census" (P.Union_find.size uf 0) size

let test_reveal_ball () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let ball = P.Reveal.ball w 0 ~radius:2 in
  (* Full world: |B(0,2)| = 1 + 6 + 15 = 22. *)
  Alcotest.(check int) "ball size" 22 (Hashtbl.length ball);
  Hashtbl.iter
    (fun v d ->
      Alcotest.(check bool) "radius" true (d <= 2);
      Alcotest.(check int) "distance correct" (Topology.Hypercube.hamming 0 v) d)
    ball

let test_reveal_ball_reference () =
  (* Independent of the ball's stop rule: x is in B(v, r), at entry d,
     iff the point-to-point reveal finds it at distance d <= r. Both
     representations, a removal overlay and a site world. *)
  let g = Topology.Mesh.graph ~d:2 ~m:8 in
  let n = g.G.vertex_count in
  let worlds cache =
    let bond = P.World.create ~cache g ~p:0.65 ~seed:151L in
    [
      ("bond", bond);
      ("overlay", P.World.remove_edges bond [ (0, 1); (9, 10); (18, 26); (27, 35) ]);
      ("site", P.World.create ~cache ~site_p:0.85 g ~p:0.8 ~seed:157L);
    ]
  in
  List.iter
    (fun cache ->
      List.iter
        (fun (name, w) ->
          Alcotest.(check bool) "representation" cache (P.World.cached w);
          for v = 0 to n - 1 do
            let distance =
              Array.init n (fun x ->
                  match P.Reveal.connected w v x with
                  | P.Reveal.Connected d -> Some d
                  | P.Reveal.Disconnected | P.Reveal.Unknown -> None)
            in
            for r = 0 to 4 do
              let expected =
                List.filter_map
                  (fun x ->
                    match distance.(x) with
                    | Some d when d <= r -> Some (x, d)
                    | Some _ | None -> None)
                  (List.init n Fun.id)
              in
              let ball =
                Hashtbl.fold (fun x d acc -> (x, d) :: acc) (P.Reveal.ball w v ~radius:r) []
                |> List.sort compare
              in
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "%s cache=%b ball(%d,%d)" name cache v r)
                expected ball
            done
          done)
        (worlds cache))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Clusters                                                            *)

let test_census_full_world () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let census = P.Clusters.census w in
  Alcotest.(check int) "one component" 1 census.P.Clusters.component_count;
  Alcotest.(check int) "largest" 64 census.P.Clusters.largest;
  Alcotest.(check int) "second" 0 census.P.Clusters.second_largest;
  Alcotest.(check int) "open edges" 192 census.P.Clusters.open_edge_count;
  Alcotest.(check (float 1e-9)) "fraction" 1.0 (P.Clusters.giant_fraction census);
  Alcotest.(check bool) "giant" true (P.Clusters.has_giant census)

let test_census_empty_world () =
  let w = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  let census = P.Clusters.census w in
  Alcotest.(check int) "all singletons" 64 census.P.Clusters.component_count;
  Alcotest.(check int) "largest" 1 census.P.Clusters.largest;
  Alcotest.(check bool) "no giant" false (P.Clusters.has_giant ~threshold:0.05 census)

let test_census_sizes_sum () =
  let w = P.World.create hypercube6 ~p:0.4 ~seed:71L in
  let census = P.Clusters.census w in
  let total = Array.fold_left ( + ) 0 census.P.Clusters.sizes in
  Alcotest.(check int) "partition" 64 total;
  (* Sizes sorted decreasing. *)
  let sorted = Array.copy census.P.Clusters.sizes in
  Array.sort (fun a b -> compare b a) sorted;
  Alcotest.(check (array int)) "sorted" sorted census.P.Clusters.sizes

let test_in_largest () =
  let w = P.World.create hypercube6 ~p:0.9 ~seed:5L in
  let census = P.Clusters.census w in
  if census.P.Clusters.largest = 64 then
    Alcotest.(check bool) "member" true (P.Clusters.in_largest w 17)

let test_in_largest_tie () =
  (* Two components of equal size: the canonical tie-break (smallest
     root id) must pick exactly one — the historical size-comparison
     implementation answered [true] on both sides of a tie. *)
  let path6 = Topology.Mesh.graph ~d:1 ~m:6 in
  let w =
    P.World.remove_edges (P.World.create path6 ~p:1.0 ~seed:1L) [ (2, 3) ]
  in
  let members = List.filter (P.Clusters.in_largest w) [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "one side only" 3 (List.length members);
  Alcotest.(check bool) "the two halves disagree" true
    (P.Clusters.in_largest w 0 <> P.Clusters.in_largest w 5);
  (* The reusable membership answers identically without a rebuild per
     query. *)
  let m = P.Clusters.membership w in
  Alcotest.(check int) "largest size" 3 m.P.Clusters.largest_size;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d" v)
        (P.Clusters.in_largest w v) (P.Clusters.member m v))
    [ 0; 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Chemical                                                            *)

let test_chemical_distance_full () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  Alcotest.(check (option int)) "full world = metric" (Some 6)
    (P.Chemical.distance w 0 63);
  Alcotest.(check (option (float 1e-9))) "stretch 1" (Some 1.0)
    (P.Chemical.stretch w 0 63)

let test_chemical_distance_disconnected () =
  let w = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  Alcotest.(check (option int)) "none" None (P.Chemical.distance w 0 63)

let test_chemical_stretch_ge_one () =
  let w = P.World.create hypercube6 ~p:0.6 ~seed:91L in
  let stream = Prng.Stream.create 4L in
  for _ = 1 to 50 do
    let u, v = Prng.Sample.distinct_pair stream 64 in
    match P.Chemical.stretch w u v with
    | Some s -> Alcotest.(check bool) "stretch >= 1" true (s >= 1.0 -. 1e-9)
    | None -> ()
  done

let test_chemical_eccentricity_sample () =
  let w = P.World.create hypercube6 ~p:0.9 ~seed:15L in
  let stream = Prng.Stream.create 5L in
  let ds = P.Chemical.eccentricity_sample stream ~pairs:30 w in
  Alcotest.(check bool) "some connected pairs" true (List.length ds > 0);
  List.iter (fun d -> Alcotest.(check bool) "positive" true (d >= 1)) ds

(* ------------------------------------------------------------------ *)
(* Site percolation                                                    *)

let test_site_bond_world_all_alive () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:1L in
  for v = 0 to 63 do
    Alcotest.(check bool) "alive in bond world" true (P.World.vertex_alive w v)
  done;
  Alcotest.(check bool) "no site p" true (P.World.site_p w = None)

let test_site_extremes () =
  let alive = P.World.create ~site_p:1.0 hypercube6 ~p:1.0 ~seed:1L in
  let dead = P.World.create ~site_p:0.0 hypercube6 ~p:1.0 ~seed:1L in
  Topology.Graph.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "all open" true (P.World.is_open alive u v);
      Alcotest.(check bool) "all closed" false (P.World.is_open dead u v))

let test_site_edge_open_iff_both_alive () =
  let w = P.World.create ~site_p:0.6 hypercube6 ~p:1.0 ~seed:7L in
  Topology.Graph.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "consistency"
        (P.World.vertex_alive w u && P.World.vertex_alive w v)
        (P.World.is_open w u v))

let test_site_dead_vertex_isolated () =
  let w = P.World.create ~site_p:0.5 hypercube6 ~p:1.0 ~seed:9L in
  for v = 0 to 63 do
    if not (P.World.vertex_alive w v) then
      Alcotest.(check int) "no open edges" 0 (P.World.open_degree w v)
  done

let test_site_alive_rate () =
  let g = Topology.Complete.graph 2000 in
  let w = P.World.create ~site_p:0.3 g ~p:1.0 ~seed:11L in
  let alive = ref 0 in
  for v = 0 to 1999 do
    if P.World.vertex_alive w v then incr alive
  done;
  let rate = float_of_int !alive /. 2000.0 in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.3" rate) true
    (rate > 0.27 && rate < 0.33)

let test_site_independent_of_bond_coins () =
  (* Same seed: the vertex coins must not mirror the edge coins. *)
  let g = Topology.Complete.graph 500 in
  let w = P.World.create ~site_p:0.5 g ~p:0.5 ~seed:13L in
  let agree = ref 0 in
  for v = 0 to 498 do
    (* Compare vertex v's liveness with edge (v, v+1)'s raw coin. *)
    let edge_coin =
      Prng.Coin.bernoulli ~seed:13L ~p:0.5 (g.Topology.Graph.edge_id v (v + 1))
    in
    if P.World.vertex_alive w v = edge_coin then incr agree
  done;
  let rate = float_of_int !agree /. 499.0 in
  Alcotest.(check bool) "uncorrelated" true (rate > 0.4 && rate < 0.6)

(* ------------------------------------------------------------------ *)
(* Worst-case faults                                                   *)

let test_remove_edges_closes_them () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let attacked = P.World.remove_edges w [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "removed closed" false (P.World.is_open attacked 0 1);
  Alcotest.(check bool) "removed closed 2" false (P.World.is_open attacked 0 2);
  Alcotest.(check bool) "others open" true (P.World.is_open attacked 0 4);
  Alcotest.(check int) "count" 2 (P.World.removed_count attacked);
  (* The original world is untouched. *)
  Alcotest.(check bool) "original intact" true (P.World.is_open w 0 1);
  Alcotest.(check int) "original count" 0 (P.World.removed_count w)

let test_remove_edges_cumulative () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let once = P.World.remove_edges w [ (0, 1) ] in
  let twice = P.World.remove_edges once [ (0, 2); (0, 1) ] in
  Alcotest.(check int) "dedup + cumulative" 2 (P.World.removed_count twice);
  Alcotest.(check bool) "first still closed" false (P.World.is_open twice 0 1)

let test_remove_edges_non_edge () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  match P.World.remove_edges w [ (0, 3) ] with
  | _ -> Alcotest.fail "non-edge accepted"
  | exception Topology.Graph.Not_an_edge _ -> ()

(* The worst-case adversary is Scenario's [Min_cut] and [Around]
   models, overlaid on a fault-free world. *)
let test_worst_case_min_cut_disconnects () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let attacked =
    P.World.remove_edges w
      (P.Scenario.sampler hypercube6
         (P.Scenario.Min_cut { source = 0; target = 63 })
         (Prng.Stream.create 51L) ~budget:6)
  in
  Alcotest.(check int) "six removals suffice" 6 (P.World.removed_count attacked);
  match P.Reveal.connected attacked 0 63 with
  | P.Reveal.Disconnected -> ()
  | P.Reveal.Connected _ | P.Reveal.Unknown ->
      Alcotest.fail "min-cut attack must disconnect"

let test_worst_case_min_cut_insufficient_budget () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let attacked =
    P.World.remove_edges w
      (P.Scenario.sampler hypercube6
         (P.Scenario.Min_cut { source = 0; target = 63 })
         (Prng.Stream.create 52L) ~budget:5)
  in
  match P.Reveal.connected attacked 0 63 with
  | P.Reveal.Connected _ -> ()
  | P.Reveal.Disconnected | P.Reveal.Unknown ->
      Alcotest.fail "connectivity 6 survives 5 deletions"

let test_worst_case_around_source () =
  let edges =
    P.Scenario.sampler hypercube6
      (P.Scenario.Around { vertex = 0 })
      (Prng.Stream.create 53L) ~budget:6
  in
  Alcotest.(check int) "budget filled" 6 (List.length edges);
  (* The first six harvested edges are exactly the source's incident ones. *)
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "incident to source" true (u = 0 || v = 0))
    edges

let test_worst_case_random_distinct () =
  let g = Topology.Hypercube.graph 5 in
  let edges =
    P.Scenario.sampler g P.Scenario.Random (Prng.Stream.create 54L) ~budget:40
  in
  Alcotest.(check int) "forty edges" 40 (List.length edges);
  let ids = Hashtbl.create 64 in
  List.iter (fun (u, v) -> Hashtbl.replace ids (g.Topology.Graph.edge_id u v) ()) edges;
  Alcotest.(check int) "distinct" 40 (Hashtbl.length ids)

let test_worst_case_over_budget_capped () =
  let g = Topology.Theta.graph 3 in
  let edges =
    P.Scenario.sampler g P.Scenario.Random (Prng.Stream.create 55L) ~budget:100
  in
  Alcotest.(check int) "capped at |E|" 6 (List.length edges)

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)

let line size slope points =
  { P.Scaling.size; points = List.map (fun x -> (x, slope *. x)) points }

let test_scaling_interpolate () =
  let curve = { P.Scaling.size = 1; points = [ (0.0, 0.0); (1.0, 2.0); (2.0, 2.0) ] } in
  Alcotest.(check (float 1e-9)) "midpoint" 1.0 (P.Scaling.interpolate curve 0.5);
  Alcotest.(check (float 1e-9)) "node" 2.0 (P.Scaling.interpolate curve 1.0);
  Alcotest.(check (float 1e-9)) "flat" 2.0 (P.Scaling.interpolate curve 1.7);
  Alcotest.(check (float 1e-9)) "clamp low" 0.0 (P.Scaling.interpolate curve (-1.0));
  Alcotest.(check (float 1e-9)) "clamp high" 2.0 (P.Scaling.interpolate curve 9.0)

let test_scaling_crossing_exact () =
  (* y = x and y = 1 - x cross at exactly 1/2. *)
  let grid = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let a = { P.Scaling.size = 1; points = List.map (fun x -> (x, x)) grid } in
  let b = { P.Scaling.size = 2; points = List.map (fun x -> (x, 1.0 -. x)) grid } in
  match P.Scaling.crossing a b with
  | Some x -> Alcotest.(check (float 1e-6)) "crossing" 0.5 x
  | None -> Alcotest.fail "expected a crossing"

let test_scaling_no_crossing () =
  let grid = [ 0.0; 1.0 ] in
  let a = line 1 1.0 grid and b = line 2 2.0 grid in
  (* Both pass through the origin with different slopes: difference is 0
     at 0 — counts as a crossing at 0. Shift b up to remove it. *)
  let b = { b with P.Scaling.points = List.map (fun (x, y) -> (x, y +. 1.0)) b.P.Scaling.points } in
  Alcotest.(check bool) "none" true (P.Scaling.crossing a b = None)

let test_scaling_estimate_threshold () =
  let grid = [ 0.0; 0.5; 1.0 ] in
  let make size shift =
    { P.Scaling.size; points = List.map (fun x -> (x, x -. shift)) grid }
  in
  (* Curves x - 0.1, x - 0.2, x - 0.3 against each other never cross;
     estimate must be None. *)
  Alcotest.(check bool) "no crossings" true
    (P.Scaling.estimate_threshold [ make 1 0.1; make 2 0.2; make 3 0.3 ] = None);
  (* Steepening sigmoid-like family crossing at 0.5. *)
  let sigmoid size =
    let steepness = float_of_int size in
    {
      P.Scaling.size;
      points =
        List.map
          (fun x -> (x, 1.0 /. (1.0 +. exp (-.steepness *. (x -. 0.5)))))
          [ 0.0; 0.2; 0.4; 0.5; 0.6; 0.8; 1.0 ];
    }
  in
  match P.Scaling.estimate_threshold [ sigmoid 4; sigmoid 8; sigmoid 16 ] with
  | Some estimate -> Alcotest.(check (float 0.02)) "sigmoid family" 0.5 estimate
  | None -> Alcotest.fail "expected crossings"

(* ------------------------------------------------------------------ *)
(* Branching                                                           *)

let test_branching_survival_closed_form () =
  (* s = (2p-1)/p^2 must be the fixed point of the depth recursion. *)
  List.iter
    (fun p ->
      let limit = P.Branching.survival ~p in
      let deep = P.Branching.survival_to_depth ~p 200 in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "p=%.2f" p) limit deep)
    [ 0.55; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let test_branching_subcritical_dies () =
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "no survival" 0.0 (P.Branching.survival ~p);
      Alcotest.(check bool) "depth survival shrinks" true
        (P.Branching.survival_to_depth ~p 50 < 0.05))
    [ 0.1; 0.3; 0.45 ];
  (* Critical case: survival to depth k decays only like Θ(1/k). *)
  Alcotest.(check (float 1e-9)) "critical limit" 0.0 (P.Branching.survival ~p:0.5);
  let critical_50 = P.Branching.survival_to_depth ~p:0.5 50 in
  Alcotest.(check bool)
    (Printf.sprintf "critical decay %.3f in (0.04, 0.15)" critical_50)
    true
    (critical_50 > 0.04 && critical_50 < 0.15)

let test_branching_monotone_in_depth () =
  let p = 0.7 in
  let rec check k =
    if k < 30 then begin
      Alcotest.(check bool) "monotone" true
        (P.Branching.survival_to_depth ~p (k + 1)
        <= P.Branching.survival_to_depth ~p k +. 1e-12);
      check (k + 1)
    end
  in
  check 0

let test_branching_dual () =
  let p = 0.8 in
  let dual = P.Branching.dual_parameter ~p in
  Alcotest.(check bool) "dual subcritical" true (dual < 0.5);
  (* p = 0.8: e = 1 - 0.9375 = 0.0625, sqrt e = 0.25, dual = 0.2. *)
  Alcotest.(check (float 1e-9)) "dual value" 0.2 dual;
  Alcotest.(check (float 1e-9)) "failed branch size" (1.0 /. 0.6)
    (P.Branching.expected_failed_branch_size ~p);
  Alcotest.check_raises "needs supercritical"
    (Invalid_argument "Branching.dual_parameter: need p > 1/2") (fun () ->
      ignore (P.Branching.dual_parameter ~p:0.5))

let test_branching_total_progeny () =
  Alcotest.(check (float 1e-9)) "subcritical" 2.5
    (P.Branching.expected_total_progeny ~p:0.3);
  Alcotest.(check bool) "supercritical infinite" true
    (P.Branching.expected_total_progeny ~p:0.6 = infinity)

let test_branching_double_tree_matches_e6 () =
  (* E6's exact column is [double_tree_connection]; the reference is
     Lemma 6's recursion q_0 = 1, q_k = 1 - (1 - p^2 q_{k-1})^2, written
     out here. *)
  let reference ~n ~p =
    let q = ref 1.0 in
    for _ = 1 to n do
      q := 1.0 -. ((1.0 -. (p *. p *. !q)) ** 2.0)
    done;
    !q
  in
  List.iter
    (fun (n, p) ->
      Alcotest.(check (float 1e-12)) "same recursion" (reference ~n ~p)
        (P.Branching.double_tree_connection ~p ~n))
    [ (5, 0.75); (10, 0.8); (3, 0.6) ]

let test_branching_simulation_matches_survival () =
  (* Fraction of simulated processes that reach many nodes ~ survival. *)
  let p = 0.8 in
  let stream = Prng.Stream.create 91L in
  let trials = 2000 in
  let survived = ref 0 in
  for _ = 1 to trials do
    match P.Branching.sample_progeny stream ~p ~max_nodes:500 with
    | `Truncated -> incr survived
    | `Extinct _ -> ()
  done;
  let measured = Stats.Proportion.make ~successes:!survived ~trials in
  let exact = P.Branching.survival ~p in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f covers %.3f" (Stats.Proportion.estimate measured) exact)
    true
    (Stats.Proportion.within measured ~lo:exact ~hi:exact)

let test_branching_extinct_sizes () =
  (* Mean size of extinct processes ~ c(p) = expected failed branch size. *)
  let p = 0.8 in
  let stream = Prng.Stream.create 92L in
  let sizes = ref Stats.Summary.empty in
  for _ = 1 to 4000 do
    match P.Branching.sample_progeny stream ~p ~max_nodes:2000 with
    | `Extinct size -> sizes := Stats.Summary.add !sizes (float_of_int size)
    | `Truncated -> ()
  done;
  let measured = Stats.Summary.mean !sizes in
  let expected = P.Branching.expected_failed_branch_size ~p in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2f near c(p) = %.2f" measured expected)
    true
    (Float.abs (measured -. expected) < 0.2)

(* ------------------------------------------------------------------ *)
(* Cached vs lazy differential                                         *)

(* The cached (bitset + adjacency memo) representation must be
   observationally identical to the lazy reference on every query — the
   memoisation is allowed to show up only as speed. Each test runs the
   same queries against a cached and a lazy world built from the same
   (graph, p, seed) and demands equal answers. *)

let diff_graphs =
  [
    ("hypercube6", hypercube6);
    ("mesh2-8", Topology.Mesh.graph ~d:2 ~m:8);
    ("complete30", Topology.Complete.graph 30);
  ]

let world_pair ?site_p graph ~p ~seed =
  let cached = P.World.create ?site_p graph ~p ~seed in
  let lazy_ = P.World.create ?site_p ~cache:false graph ~p ~seed in
  Alcotest.(check bool) "cached flag" true (P.World.cached cached);
  Alcotest.(check bool) "lazy flag" false (P.World.cached lazy_);
  (cached, lazy_)

let test_diff_gate () =
  (* Under the gate: cached by default, lazy on request. Over the gate
     (implicit hypercube with 2^22 vertices): always lazy. *)
  let small = P.World.create hypercube6 ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "small cached" true (P.World.cached small);
  let forced = P.World.create ~cache:false hypercube6 ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "forced lazy" false (P.World.cached forced);
  let huge = Topology.Hypercube.graph 22 in
  Alcotest.(check bool) "over gate" true
    (huge.G.vertex_count > P.World.cache_gate);
  let big = P.World.create huge ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "gated to lazy" false (P.World.cached big)

let test_diff_is_open () =
  List.iter
    (fun (name, graph) ->
      List.iter
        (fun p ->
          let cached, lazy_ = world_pair graph ~p ~seed:101L in
          G.iter_edges graph (fun u v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s p=%.2f (%d,%d)" name p u v)
                (P.World.is_open lazy_ u v)
                (P.World.is_open cached u v)))
        [ 0.0; 0.3; 0.7; 1.0 ])
    diff_graphs

let test_diff_open_neighbors () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.5 ~seed:103L in
      for v = 0 to graph.G.vertex_count - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "%s v=%d" name v)
          (P.World.open_neighbors lazy_ v)
          (P.World.open_neighbors cached v);
        Alcotest.(check int) "degree" (P.World.open_degree lazy_ v)
          (P.World.open_degree cached v);
        (* Repeat query: the memoised answer must not drift. *)
        Alcotest.(check (array int))
          (Printf.sprintf "%s v=%d repeat" name v)
          (P.World.open_neighbors lazy_ v)
          (P.World.open_neighbors cached v)
      done)
    diff_graphs

let test_diff_reveal () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.5 ~seed:107L in
      let stream = Prng.Stream.create 23L in
      for _ = 1 to 50 do
        let u, v = Prng.Sample.distinct_pair stream graph.G.vertex_count in
        let show = function
          | P.Reveal.Connected d -> Printf.sprintf "connected %d" d
          | P.Reveal.Disconnected -> "disconnected"
          | P.Reveal.Unknown -> "unknown"
        in
        Alcotest.(check string)
          (Printf.sprintf "%s verdict (%d,%d)" name u v)
          (show (P.Reveal.connected lazy_ u v))
          (show (P.Reveal.connected cached u v));
        (* Truncated reveals must agree too (same visit order). *)
        Alcotest.(check string)
          (Printf.sprintf "%s limited verdict (%d,%d)" name u v)
          (show (P.Reveal.connected ~limit:7 lazy_ u v))
          (show (P.Reveal.connected ~limit:7 cached u v))
      done;
      let sorted_cluster w v = List.sort compare (fst (P.Reveal.cluster_of w v)) in
      for v = 0 to min 20 (graph.G.vertex_count - 1) do
        Alcotest.(check (list int))
          (Printf.sprintf "%s cluster of %d" name v)
          (sorted_cluster lazy_ v) (sorted_cluster cached v)
      done)
    diff_graphs

let test_diff_ball () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.6 ~seed:109L in
      let sorted_ball w v r =
        let tbl = P.Reveal.ball w v ~radius:r in
        Hashtbl.fold (fun vertex d acc -> (vertex, d) :: acc) tbl []
        |> List.sort compare
      in
      for v = 0 to min 10 (graph.G.vertex_count - 1) do
        List.iter
          (fun r ->
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s ball(%d,%d)" name v r)
              (sorted_ball lazy_ v r) (sorted_ball cached v r))
          [ 0; 1; 2; 3 ]
      done)
    diff_graphs

let test_diff_oracle () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.5 ~seed:113L in
      let oc = P.Oracle.create ~policy:P.Oracle.Unrestricted cached ~source:0 in
      let ol = P.Oracle.create ~policy:P.Oracle.Unrestricted lazy_ ~source:0 in
      (* Same probe sequence against both stores (edge sweep, twice, so
         the memo path is exercised). *)
      for _pass = 1 to 2 do
        G.iter_edges graph (fun u v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s probe (%d,%d)" name u v)
              (P.Oracle.probe ol u v) (P.Oracle.probe oc u v))
      done;
      Alcotest.(check int) "distinct" (P.Oracle.distinct_probes ol)
        (P.Oracle.distinct_probes oc);
      Alcotest.(check int) "raw" (P.Oracle.raw_probes ol) (P.Oracle.raw_probes oc);
      Alcotest.(check int) "reached count" (P.Oracle.reached_count ol)
        (P.Oracle.reached_count oc);
      Alcotest.(check (list int)) "reached set"
        (List.sort compare (P.Oracle.reached_vertices ol))
        (List.sort compare (P.Oracle.reached_vertices oc));
      for v = 0 to graph.G.vertex_count - 1 do
        Alcotest.(check (option (list int)))
          (Printf.sprintf "%s path to %d" name v)
          (P.Oracle.path_to ol v) (P.Oracle.path_to oc v)
      done)
    diff_graphs

(* One small size per registry topology; a family added to the
   registry without one fails the router differential below. *)
let router_diff_sizes =
  [
    ("hypercube", 6); ("mesh2", 8); ("mesh3", 4); ("torus2", 7); ("tree", 5);
    ("double-tree", 4); ("complete", 24); ("theta", 12); ("de-bruijn", 6);
    ("shuffle-exchange", 6); ("butterfly", 3); ("cycle-matching", 40);
  ]

let test_diff_router_outcomes () =
  (* End to end: every registry router, on every registry topology it
     applies to, must behave identically over the two representations —
     same outcome and path, same distinct and raw probe counts, with and
     without a budget. *)
  let outcome = Alcotest.testable Routing.Outcome.pp ( = ) in
  let cases = ref 0 in
  List.iter
    (fun (topology : Topology.Registry.entry) ->
      let size =
        match List.assoc_opt topology.name router_diff_sizes with
        | Some size -> size
        | None -> Alcotest.failf "no differential size for topology %s" topology.name
      in
      let instance = topology.build ~size (Prng.Stream.create 3L) in
      let graph = instance.Topology.Registry.graph in
      let last = graph.G.vertex_count - 1 in
      let pairs =
        [ (0, last); (last, 0) ]
        @
        match instance.Topology.Registry.shape with
        | Topology.Registry.Double_tree { depth } ->
            [ (Topology.Double_tree.root1, Topology.Double_tree.root2 ~n:depth) ]
        | _ -> []
      in
      List.iter
        (fun (router : Routing.Registry.entry) ->
          List.iter
            (fun (source, target) ->
              (* A fresh stream per build: randomized routers draw from
                 it while routing, so each run must start from the same
                 state. *)
              let build () =
                router.build ~instance ~source ~target (Prng.Stream.create 17L)
              in
              match build () with
              | Error _ -> ()
              | Ok _ ->
                  List.iter
                    (fun (seed, p, budget) ->
                      incr cases;
                      let cached, lazy_ = world_pair graph ~p ~seed in
                      let run world =
                        let built () = Result.get_ok (build ()) in
                        let result =
                          Routing.Router.run ?budget (built ()) world ~source ~target
                        in
                        (* [Router.run] keeps its oracle private: replay
                           the attempt on an explicit one to read the
                           raw count of every outcome, not just [Found]. *)
                        let r = built () in
                        let oracle =
                          P.Oracle.create ~policy:r.Routing.Router.policy ?budget world
                            ~source
                        in
                        (try ignore (r.Routing.Router.route oracle ~target)
                         with P.Oracle.Budget_exhausted -> ());
                        (result, P.Oracle.distinct_probes oracle, P.Oracle.raw_probes oracle)
                      in
                      let label =
                        Printf.sprintf "%s %s %d->%d seed %Ld p %.2f budget %s" router.name
                          graph.G.name source target seed p
                          (match budget with Some b -> string_of_int b | None -> "none")
                      in
                      let expected, expected_distinct, expected_raw = run lazy_ in
                      let got, distinct, raw = run cached in
                      Alcotest.check outcome label expected got;
                      (* Again on this domain: the run reuses the scratch
                         the first one handed back. *)
                      Alcotest.check outcome (label ^ " rerun") got
                        (Routing.Router.run ?budget
                           (Result.get_ok (build ()))
                           cached ~source ~target);
                      Alcotest.(check (option (list int)))
                        (label ^ " path") (Routing.Outcome.path expected)
                        (Routing.Outcome.path got);
                      Alcotest.(check int) (label ^ " distinct") expected_distinct distinct;
                      Alcotest.(check int) (label ^ " raw") expected_raw raw)
                    (List.concat_map
                       (fun seed ->
                         List.concat_map
                           (fun p -> [ (seed, p, None); (seed, p, Some 12) ])
                           [ 0.5; 0.8 ])
                       [ 1L; 2L; 3L; 4L; 5L ]))
            pairs)
        Routing.Registry.entries)
    Topology.Registry.entries;
  Alcotest.(check bool) (Printf.sprintf "%d applicable cases" !cases) true (!cases > 1000)

let test_diff_site () =
  let cached, lazy_ = world_pair ~site_p:0.6 hypercube6 ~p:0.8 ~seed:127L in
  for v = 0 to 63 do
    Alcotest.(check bool)
      (Printf.sprintf "alive %d" v)
      (P.World.vertex_alive lazy_ v)
      (P.World.vertex_alive cached v)
  done;
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool)
        (Printf.sprintf "site is_open (%d,%d)" u v)
        (P.World.is_open lazy_ u v) (P.World.is_open cached u v))

let test_diff_removal_overlay () =
  let cached, lazy_ = world_pair hypercube6 ~p:0.9 ~seed:131L in
  let removals = [ (0, 1); (0, 2); (5, 7) ] in
  let cached' = P.World.remove_edges cached removals in
  let lazy' = P.World.remove_edges lazy_ removals in
  (* The overlaid cached world still reports as cached (shared cache). *)
  Alcotest.(check bool) "overlay keeps cache" true (P.World.cached cached');
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool)
        (Printf.sprintf "overlay is_open (%d,%d)" u v)
        (P.World.is_open lazy' u v) (P.World.is_open cached' u v));
  for v = 0 to 63 do
    Alcotest.(check (array int))
      (Printf.sprintf "overlay neighbors %d" v)
      (P.World.open_neighbors lazy' v)
      (P.World.open_neighbors cached' v)
  done;
  (* Base worlds stay unaffected. *)
  Alcotest.(check bool) "base intact" (P.World.is_open lazy_ 0 1)
    (P.World.is_open cached 0 1)

let test_diff_shared_across_domains () =
  (* A fresh cached world is read-only: four domains querying one
     un-prefilled world get the jobs-1 answers, which are also the lazy
     world's. Each round starts from a fresh world, so the domains race
     through its first queries. *)
  let g = Topology.Mesh.graph ~d:2 ~m:100 in
  let n = g.G.vertex_count in
  let ask w v =
    ( P.Reveal.connected w v (n - 1 - v),
      P.Reveal.cluster_size w v,
      P.World.open_neighbors w v,
      Hashtbl.length (P.Reveal.ball w v ~radius:3) )
  in
  let vertices = Array.init 64 (fun i -> i * 151) in
  let fresh () = fst (world_pair g ~p:0.6 ~seed:137L) in
  let sequential = Engine_par.Pool.map ~jobs:1 (ask (fresh ())) vertices in
  for round = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "jobs 4 round %d" round)
      true
      (Engine_par.Pool.map ~jobs:4 (ask (fresh ())) vertices = sequential)
  done;
  let lazy_ = snd (world_pair g ~p:0.6 ~seed:137L) in
  Alcotest.(check bool) "lazy answers" true (Array.map (ask lazy_) vertices = sequential)

(* Worlds over one graph read the graph's own rows: two worlds made in
   turn share them, and so do four made at once on four domains racing
   to fill an empty cell (each round uses a fresh graph). *)
let test_diff_shared_csr () =
  let csr w =
    match P.World.rows w with
    | Some (P.World.Coins { csr; _ }) -> csr
    | Some (P.World.Prefilled _) | None -> Alcotest.fail "not a fresh cached world"
  in
  let g = Topology.Mesh.graph ~d:2 ~m:20 in
  let first = csr (P.World.create g ~p:0.5 ~seed:1L) in
  Alcotest.(check bool) "two worlds, one csr" true
    (first == csr (P.World.create g ~p:0.7 ~seed:2L));
  for round = 1 to 5 do
    let g = Topology.Torus.graph ~d:2 ~m:60 in
    let waiting = Atomic.make 4 in
    let domains =
      List.init 4 (fun i ->
          Domain.spawn (fun () ->
              Atomic.decr waiting;
              while Atomic.get waiting > 0 do
                Domain.cpu_relax ()
              done;
              csr (P.World.create g ~p:0.5 ~seed:(Int64.of_int i))))
    in
    match List.map Domain.join domains with
    | [] -> assert false
    | winner :: rest ->
        List.iter
          (fun other ->
            Alcotest.(check bool) (Printf.sprintf "round %d: one csr" round) true (other == winner))
          rest;
        Alcotest.(check bool)
          (Printf.sprintf "round %d: the graph's csr" round)
          true
          (winner == Topology.Csr.of_graph g)
  done

(* ------------------------------------------------------------------ *)
(* Scratch reuse                                                       *)

(* Per-domain scratch must be invisible: every route and reveal that
   reuses a slab answers as a scratch-free reference does — the same
   router on a fresh oracle over the lazy twin world, or the Table BFS
   engine — in any order of graphs, budgets and failures, and every
   lease is handed back. *)

let outcome_t = Alcotest.testable Routing.Outcome.pp ( = )

let reference_route ?budget (router : Routing.Router.t) world ~source ~target =
  let oracle = P.Oracle.create ~policy:router.Routing.Router.policy ?budget world ~source in
  match router.Routing.Router.route oracle ~target with
  | outcome -> outcome
  | exception P.Oracle.Budget_exhausted ->
      Routing.Outcome.Budget_exceeded { probes = P.Oracle.distinct_probes oracle }

let check_leases label =
  Alcotest.(check int) (label ^ ": leases handed back") 0 (P.Scratch.leases_held ())

let check_route label ?budget router (cached, lazy_) ~source ~target =
  let got = Routing.Router.run ?budget router cached ~source ~target in
  Alcotest.check outcome_t label (reference_route ?budget router lazy_ ~source ~target) got;
  check_leases label;
  got

let scratch_routers =
  [ Routing.Greedy.router; Routing.Local_bfs.router; Routing.Bidirectional.router ]

let test_scratch_graph_sizes () =
  (* Larger graph, smaller graph, larger again: a grown slab serves the
     smaller graph and must not leak the larger one's entries. *)
  let large = world_pair (Topology.Mesh.graph ~d:2 ~m:30) ~p:0.7 ~seed:201L
  and small = world_pair hypercube6 ~p:0.6 ~seed:202L in
  List.iter
    (fun (name, pair, last) ->
      List.iter
        (fun (router : Routing.Router.t) ->
          ignore
            (check_route
               (Printf.sprintf "%s %s" router.Routing.Router.name name)
               router pair ~source:0 ~target:last))
        scratch_routers)
    [ ("large", large, 899); ("small", small, 63); ("large again", large, 899);
      ("small again", small, 63) ]

let test_scratch_budget_then_full () =
  let pair = world_pair (Topology.Mesh.graph ~d:2 ~m:20) ~p:0.8 ~seed:203L in
  List.iter
    (fun (router : Routing.Router.t) ->
      let name = router.Routing.Router.name in
      (match check_route (name ^ " budget 5") ~budget:5 router pair ~source:0 ~target:399 with
      | Routing.Outcome.Budget_exceeded _ -> ()
      | Routing.Outcome.Found _ | Routing.Outcome.No_path _ ->
          Alcotest.failf "%s: want Budget_exceeded at budget 5" name);
      ignore (check_route (name ^ " full") router pair ~source:0 ~target:399))
    scratch_routers

let test_scratch_router_raises () =
  (* A router that raises mid-route, and a greedy route whose metric
     raises after its oracle is leased: the slabs come back clean. *)
  let ((cached, _) as pair) = world_pair hypercube6 ~p:1.0 ~seed:204L in
  let raising =
    {
      Routing.Router.name = "raises";
      policy = P.Oracle.Local;
      route =
        (fun oracle ~target:_ ->
          ignore (P.Oracle.probe oracle 0 1);
          ignore (P.Oracle.probe oracle 1 3);
          failwith "router bug");
    }
  in
  Alcotest.check_raises "router raises" (Failure "router bug") (fun () ->
      ignore (Routing.Router.run raising cached ~source:0 ~target:63));
  check_leases "after a raising router";
  let bad_metric =
    { hypercube6 with G.distance = Some (fun _ _ -> failwith "metric bug") }
  in
  Alcotest.check_raises "metric raises" (Failure "metric bug") (fun () ->
      ignore
        (Routing.Router.run Routing.Greedy.router
           (P.World.create bad_metric ~p:1.0 ~seed:204L)
           ~source:0 ~target:63));
  check_leases "after a raising metric";
  List.iter
    (fun (router : Routing.Router.t) ->
      ignore (check_route (router.Routing.Router.name ^ " after") router pair ~source:0 ~target:63))
    scratch_routers

let test_scratch_nested () =
  (* A route started inside another route on the same domain finds the
     oracle slab held and runs on fresh arrays; so does a reveal started
     from a reveal's visit hook. Both answer as the references do. *)
  let outer = world_pair (Topology.Mesh.graph ~d:2 ~m:12) ~p:0.8 ~seed:205L
  and inner_cached, inner_lazy = world_pair hypercube6 ~p:0.7 ~seed:206L in
  let held_inside = ref [] and inner = ref None in
  let nesting =
    {
      Routing.Router.name = "nesting";
      policy = P.Oracle.Local;
      route =
        (fun oracle ~target ->
          held_inside := P.Scratch.leases_held () :: !held_inside;
          if !inner = None then inner := Some (Routing.Router.run Routing.Greedy.router inner_cached ~source:0 ~target:63);
          Routing.Local_bfs.router.Routing.Router.route oracle ~target);
    }
  in
  ignore (check_route "nested outer" nesting outer ~source:0 ~target:143);
  (* The cached run holds the oracle slab; the lazy reference holds none. *)
  Alcotest.(check (list int)) "outer lease held during the inner route" [ 1; 0 ]
    (List.rev !held_inside);
  Alcotest.(check (option outcome_t))
    "nested inner"
    (Some (reference_route Routing.Greedy.router inner_lazy ~source:0 ~target:63))
    !inner;
  let cluster w v = List.sort compare (fst (P.Reveal.cluster_of w v)) in
  let nested_clusters = ref [] in
  let visit v _ =
    if v mod 7 = 0 then nested_clusters := (v, cluster inner_cached (v mod 64)) :: !nested_clusters
  in
  let run engine w =
    nested_clusters := [];
    let result = P.Reveal.bfs_via engine w 0 ~stop:(fun _ -> false) ~visit in
    (result, List.rev !nested_clusters)
  in
  let expected = run P.Reveal.Table inner_lazy in
  Alcotest.(check bool) "nested reveals" true (run P.Reveal.Arena inner_cached = expected);
  check_leases "after nested reveals"

let test_scratch_reveals_repeat () =
  (* The same sequence of BFS searches, twice over, on one cached world:
     each must equal the Table engine's run. It covers a stop at the
     start vertex, a limit truncation, a stop vertex found mid-search, a
     stop vertex never reached (the cluster is exhausted), a full
     cluster, a [visit] that raises and out-of-range starts. *)
  let g = Topology.Mesh.graph ~d:2 ~m:16 in
  let cached, _ = world_pair g ~p:0.6 ~seed:207L in
  let in_cluster = P.Reveal.cluster_of cached 0 |> fst |> List.sort compare in
  let far = List.nth in_cluster (List.length in_cluster - 1) in
  let outside =
    List.find (fun v -> not (List.mem v in_cluster)) (List.init g.G.vertex_count Fun.id)
  in
  let searches =
    [
      ("stop at start", None, 0, (fun v -> v = 0));
      ("limit 5", Some 5, 0, (fun _ -> false));
      ("stop mid-search", None, 0, (fun v -> v = far));
      ("stop never reached", None, 0, (fun v -> v = outside));
      ("full cluster", None, far, (fun _ -> false));
      ("limit 1", Some 1, far, (fun _ -> false));
    ]
  in
  let run engine (_, limit, start, stop) =
    let visits = ref [] in
    let result =
      P.Reveal.bfs_via engine ?limit cached start ~stop ~visit:(fun v d -> visits := (v, d) :: !visits)
    in
    (result, List.rev !visits)
  in
  for pass = 1 to 2 do
    List.iter
      (fun ((name, _, _, _) as search) ->
        Alcotest.(check bool)
          (Printf.sprintf "pass %d %s" pass name)
          true
          (run P.Reveal.Arena search = run P.Reveal.Table search);
        check_leases name)
      searches;
    let boom v _ = if v = far then failwith "visit bug" in
    Alcotest.check_raises "visit raises" (Failure "visit bug") (fun () ->
        ignore (P.Reveal.bfs_via P.Reveal.Arena cached 0 ~stop:(fun _ -> false) ~visit:boom));
    check_leases "after a raising visit"
  done;
  (* An out-of-range start is rejected before the arena touches its
     bitset, also once a larger graph has grown the slab past [n]. *)
  let big, _ = world_pair (Topology.Mesh.graph ~d:2 ~m:24) ~p:0.6 ~seed:207L in
  ignore (P.Reveal.bfs_via P.Reveal.Arena big 0 ~stop:(fun _ -> false) ~visit:(fun _ _ -> ()));
  List.iter
    (fun (engine, start) ->
      let expected =
        match G.check_vertex g start with
        | () -> Alcotest.failf "start %d is in range" start
        | exception Invalid_argument message -> message
      in
      Alcotest.check_raises (Printf.sprintf "start %d" start) (Invalid_argument expected)
        (fun () ->
          ignore
            (P.Reveal.bfs_via engine cached start ~stop:(fun _ -> false) ~visit:(fun _ _ -> ())));
      check_leases (Printf.sprintf "after start %d" start))
    [
      (P.Reveal.Arena, -1);
      (P.Reveal.Arena, g.G.vertex_count);
      (P.Reveal.Arena, g.G.vertex_count + 7);
      (P.Reveal.Table, g.G.vertex_count);
    ];
  List.iter
    (fun ((name, _, _, _) as search) ->
      Alcotest.(check bool) ("after rejections " ^ name) true
        (run P.Reveal.Arena search = run P.Reveal.Table search))
    searches

let test_scratch_domains () =
  (* 64 routes and reveals over one cached world: a jobs-4 map, each
     domain reusing its own slabs, equals the jobs-1 list. *)
  let g = Topology.Mesh.graph ~d:2 ~m:24 in
  let cached, _ = world_pair g ~p:0.75 ~seed:208L in
  let n = g.G.vertex_count in
  let ask v =
    let target = n - 1 - v in
    ( List.map
        (fun router -> Routing.Router.run ~budget:300 router cached ~source:v ~target)
        scratch_routers,
      P.Reveal.connected cached v target,
      P.Reveal.cluster_size ~limit:100 cached v )
  in
  let vertices = Array.init 64 (fun i -> i * 9) in
  let sequential = Engine_par.Pool.map ~jobs:1 ask vertices in
  Alcotest.(check bool) "jobs 4 = jobs 1" true (Engine_par.Pool.map ~jobs:4 ask vertices = sequential)

(* ------------------------------------------------------------------ *)
(* Fault scenarios                                                     *)

let mesh10 = Topology.Mesh.graph ~d:2 ~m:10

let scenario_models =
  [
    P.Scenario.Random;
    P.Scenario.Ball { centers = 3 };
    P.Scenario.Infection;
    P.Scenario.Blast { decay = 0.5 };
    (* Vertices 0 and 63 exist in both mesh10 and hypercube6. *)
    P.Scenario.Min_cut { source = 0; target = 63 };
    P.Scenario.Around { vertex = 0 };
  ]

let test_scenario_exact_budget () =
  let total = G.edge_count mesh10 in
  List.iter
    (fun model ->
      List.iter
        (fun budget ->
          let edges =
            P.Scenario.sampler mesh10 model (Prng.Stream.create 5L) ~budget
          in
          let ids = List.map (fun (u, v) -> mesh10.G.edge_id u v) edges in
          let distinct = List.sort_uniq compare ids in
          Alcotest.(check int)
            (Printf.sprintf "%s budget %d distinct edges"
               (P.Scenario.model_name model) budget)
            (min budget total) (List.length distinct);
          Alcotest.(check int)
            (Printf.sprintf "%s budget %d no duplicates"
               (P.Scenario.model_name model) budget)
            (List.length edges) (List.length distinct))
        [ 0; 1; 9; 60; total; total + 25 ])
    scenario_models

let test_scenario_sampling_pure () =
  List.iter
    (fun model ->
      let draw () =
        P.Scenario.sampler mesh10 model (Prng.Stream.create 77L) ~budget:40
      in
      Alcotest.(check (list (pair int int)))
        (P.Scenario.model_name model) (draw ()) (draw ()))
    scenario_models

let test_scenario_overlay_differential () =
  (* A scenario overlay must behave identically over the cached and the
     lazy world representation, and every sampled edge must be dead. *)
  List.iter
    (fun model ->
      let edges =
        P.Scenario.sampler hypercube6 model (Prng.Stream.create 13L) ~budget:40
      in
      let cached, lazy_ = world_pair hypercube6 ~p:0.9 ~seed:67L in
      let cached' = P.World.remove_edges cached edges in
      let lazy' = P.World.remove_edges lazy_ edges in
      G.iter_edges hypercube6 (fun u v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s is_open (%d,%d)" (P.Scenario.model_name model) u v)
            (P.World.is_open lazy' u v)
            (P.World.is_open cached' u v));
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s sampled edge (%d,%d) closed"
               (P.Scenario.model_name model) u v)
            false (P.World.is_open cached' u v))
        edges)
    scenario_models

let test_scenario_infection_blob_connected () =
  (* Eden growth spreads only along frontier edges, so (below the
     padding regime) the blob is one connected edge set. *)
  let edges =
    P.Scenario.sampler mesh10 P.Scenario.Infection (Prng.Stream.create 3L)
      ~budget:50
  in
  let adj = Hashtbl.create 64 in
  let push u v =
    Hashtbl.replace adj u (v :: Option.value (Hashtbl.find_opt adj u) ~default:[])
  in
  List.iter
    (fun (u, v) ->
      push u v;
      push v u)
    edges;
  let seen = Hashtbl.create 64 in
  let rec visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      List.iter visit (Option.value (Hashtbl.find_opt adj v) ~default:[])
    end
  in
  visit (fst (List.hd edges));
  Alcotest.(check int) "blob endpoints all reachable" (Hashtbl.length adj)
    (Hashtbl.length seen)

let test_scenario_validation () =
  List.iter
    (fun model ->
      match P.Scenario.sampler mesh10 model (Prng.Stream.create 1L) ~budget:5 with
      | _ -> Alcotest.fail "malformed model should be rejected"
      | exception Invalid_argument _ -> ())
    [
      P.Scenario.Ball { centers = 0 };
      P.Scenario.Blast { decay = 0.0 };
      P.Scenario.Blast { decay = 1.5 };
      P.Scenario.Min_cut { source = 7; target = 7 };
      P.Scenario.Min_cut { source = 0; target = 100 };
      P.Scenario.Min_cut { source = -1; target = 5 };
      P.Scenario.Around { vertex = 100 };
    ];
  match
    P.Scenario.sampler mesh10 P.Scenario.Random (Prng.Stream.create 1L) ~budget:(-1)
  with
  | _ -> Alcotest.fail "negative budget should be rejected"
  | exception Invalid_argument _ -> ()

let test_scenario_known_answers () =
  (* Pinned fault sets on the 6-cube. Random, Around and Min_cut at
     budgets within the cut reproduce the edge lists of the separate
     worst-case sampler these models replaced. *)
  let check label model stream budget expected =
    Alcotest.(check (list (pair int int)))
      label expected
      (P.Scenario.sampler hypercube6 model (Prng.Stream.create stream) ~budget)
  in
  check "random" P.Scenario.Random 101L 7
    [ (14, 15); (21, 53); (29, 31); (46, 62); (12, 44); (58, 59); (23, 31) ];
  check "around 0" (P.Scenario.Around { vertex = 0 }) 102L 8
    [ (0, 1); (0, 2); (0, 4); (0, 8); (0, 16); (0, 32); (1, 3); (1, 5) ];
  check "min-cut 0-63, budget 4"
    (P.Scenario.Min_cut { source = 0; target = 63 })
    103L 4
    [ (0, 32); (0, 16); (0, 8); (0, 4) ];
  check "min-cut 0-63, budget 6"
    (P.Scenario.Min_cut { source = 0; target = 63 })
    103L 6
    [ (0, 32); (0, 16); (0, 8); (0, 4); (0, 2); (0, 1) ];
  check "min-cut 5-42"
    (P.Scenario.Min_cut { source = 5; target = 42 })
    103L 6
    [ (5, 37); (5, 21); (5, 13); (5, 7); (5, 4); (5, 1) ]

let test_scenario_pad_to_budget () =
  let stream = Prng.Stream.create 21L in
  (* Over-long input with duplicates: dedupe keeps first occurrences,
     truncates to the budget. *)
  let chosen = [ (0, 1); (1, 0); (0, 10); (0, 1); (1, 2) ] in
  let padded = P.Scenario.pad_to_budget stream mesh10 ~budget:2 chosen in
  Alcotest.(check (list (pair int int))) "dedupe + truncate" [ (0, 1); (0, 10) ] padded;
  (* Under-budget input is topped up to the exact budget with fresh
     distinct edges, keeping the chosen prefix. *)
  let topped = P.Scenario.pad_to_budget stream mesh10 ~budget:12 [ (0, 1) ] in
  Alcotest.(check int) "topped up" 12 (List.length topped);
  Alcotest.(check (pair int int)) "prefix kept" (0, 1) (List.hd topped);
  let ids = List.map (fun (u, v) -> mesh10.G.edge_id u v) topped in
  Alcotest.(check int) "all distinct" 12 (List.length (List.sort_uniq compare ids))

let test_scenario_sampler_reuse () =
  (* One prepared sampler per (graph, model), drawn from three times in
     a row on one stream: each draw equals a draw of a sampler built
     for it alone on a twin stream, at budgets around the min cut and
     past the edge count, so a sampler carries no state between draws.
     That draws match the sampling before prepared samplers is pinned
     by [scenario known answers] and the degradation golden. *)
  List.iter
    (fun (gname, graph) ->
      let last = graph.G.vertex_count - 1 in
      let cut = List.length (Topology.Mincut.min_cut graph ~source:0 ~sink:last) in
      let total = G.edge_count graph in
      List.iter
        (fun model ->
          let sampler = P.Scenario.sampler graph model in
          List.iter
            (fun budget ->
              let mine = Prng.Stream.create 31L and twin = Prng.Stream.create 31L in
              for draw = 1 to 3 do
                Alcotest.(check (list (pair int int)))
                  (Printf.sprintf "%s %s budget %d draw %d" gname
                     (P.Scenario.model_name model) budget draw)
                  (P.Scenario.sampler graph model twin ~budget)
                  (sampler mine ~budget)
              done)
            [ 0; 1; cut - 1; cut + 1; total; total + 5 ])
        [
          P.Scenario.Random;
          P.Scenario.Ball { centers = 3 };
          P.Scenario.Infection;
          P.Scenario.Blast { decay = 0.5 };
          P.Scenario.Around { vertex = 0 };
          P.Scenario.Min_cut { source = 0; target = last };
        ])
    [ ("hypercube6", hypercube6); ("mesh10", mesh10) ]

let test_scenario_sampler_validation () =
  (* A malformed model is rejected when the sampler is built, before
     any draw; a draw rejects a negative budget. *)
  List.iter
    (fun (model, message) ->
      Alcotest.check_raises (P.Scenario.model_name model) (Invalid_argument message)
        (fun () ->
          let (_ : Prng.Stream.t -> budget:int -> (int * int) list) =
            P.Scenario.sampler mesh10 model
          in
          ()))
    [
      (P.Scenario.Ball { centers = 0 }, "Scenario: ball needs >= 1 center");
      (P.Scenario.Blast { decay = 0.0 }, "Scenario: blast decay must be in (0, 1]");
      (P.Scenario.Blast { decay = 1.5 }, "Scenario: blast decay must be in (0, 1]");
      (P.Scenario.Min_cut { source = 7; target = 7 },
       "Scenario: min-cut needs two distinct endpoints");
      (P.Scenario.Min_cut { source = 0; target = 100 },
       "Scenario: min-cut endpoint out of range");
      (P.Scenario.Around { vertex = 100 }, "Scenario: around vertex out of range");
    ];
  Alcotest.check_raises "negative budget" (Invalid_argument "Scenario.sampler: negative budget")
    (fun () ->
      ignore (P.Scenario.sampler mesh10 P.Scenario.Random (Prng.Stream.create 1L) ~budget:(-1)))

(* ------------------------------------------------------------------ *)
(* Coupling along p and site_p                                         *)

let test_world_bond_p_nests () =
  (* With vertex coins drawn as well, edge coins still nest along p at
     one seed, and the alive set does not move with p. *)
  let worlds =
    List.map
      (fun p -> P.World.create ~site_p:0.7 hypercube6 ~p ~seed:37L)
      [ 0.1; 0.3; 0.5; 0.7; 0.9 ]
  in
  let rec nested = function
    | lo :: (hi :: _ as rest) ->
        for v = 0 to 63 do
          Alcotest.(check bool)
            (Printf.sprintf "alive %d fixed" v)
            (P.World.vertex_alive lo v) (P.World.vertex_alive hi v)
        done;
        G.iter_edges hypercube6 (fun u v ->
            if P.World.is_open lo u v then
              Alcotest.(check bool)
                (Printf.sprintf "edge (%d,%d) nested" u v)
                true (P.World.is_open hi u v));
        nested rest
    | [ _ ] | [] -> ()
  in
  nested worlds

let test_world_site_p_nests () =
  (* Vertex-survival coins are threshold tests too: at one seed the
     alive set under a smaller site_p is a subset, and so are the open
     edges. *)
  let lo = P.World.create ~site_p:0.4 hypercube6 ~p:0.7 ~seed:39L in
  let hi = P.World.create ~site_p:0.8 hypercube6 ~p:0.7 ~seed:39L in
  for v = 0 to 63 do
    if P.World.vertex_alive lo v then
      Alcotest.(check bool)
        (Printf.sprintf "alive %d nested" v)
        true (P.World.vertex_alive hi v)
  done;
  G.iter_edges hypercube6 (fun u v ->
      if P.World.is_open lo u v then
        Alcotest.(check bool)
          (Printf.sprintf "edge (%d,%d) nested" u v)
          true (P.World.is_open hi u v))

(* ------------------------------------------------------------------ *)
(* Reveal engines                                                      *)

let engines = [ ("table", P.Reveal.Table); ("arena", P.Reveal.Arena) ]

let check_engines_agree label w source target =
  (* Without a limit, verdicts, distances and full-cluster counts are
     engine-independent. *)
  (match List.map (fun (n, e) -> (n, P.Reveal.connected_via e w source target)) engines with
  | (_, first) :: rest ->
      List.iter
        (fun (n, verdict) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s verdict" label n) true (verdict = first))
        rest
  | [] -> ());
  match List.map (fun (n, e) -> (n, P.Reveal.cluster_size_via e w source)) engines with
  | (_, first) :: rest ->
      List.iter
        (fun (n, count) ->
          Alcotest.(check (pair int bool)) (Printf.sprintf "%s: %s count" label n) first count)
        rest
  | [] -> ()

let test_engines_differential () =
  for k = 1 to 8 do
    let seed = Int64.of_int (100 + k) in
    let p = 0.1 *. float_of_int k in
    let cached = P.World.create hypercube6 ~p ~seed in
    check_engines_agree "cached" cached 0 63;
    let lazy_ = P.World.create ~cache:false hypercube6 ~p ~seed in
    check_engines_agree "lazy" lazy_ 0 63;
    (* Removal overlays and site percolation drop the raw-bit fast
       paths; the engines must agree on the general path too. *)
    let overlay = P.World.remove_edges cached [ (0, 1); (0, 2); (5, 7) ] in
    check_engines_agree "overlay" overlay 0 63;
    let site = P.World.create ~site_p:0.8 hypercube6 ~p ~seed in
    check_engines_agree "site" site 0 63
  done

let test_engines_limit_counts () =
  (* The shared limit convention: a truncated run visits exactly
     [limit] vertices on every engine. *)
  let w = P.World.create hypercube6 ~p:0.9 ~seed:55L in
  let full, _ = P.Reveal.cluster_size w 0 in
  Alcotest.(check bool) "cluster big enough" true (full > 16);
  List.iter
    (fun limit ->
      List.iter
        (fun (n, e) ->
          let count, truncated = P.Reveal.cluster_size_via e ~limit w 0 in
          Alcotest.(check int) (Printf.sprintf "%s count at limit %d" n limit) (min limit full) count;
          Alcotest.(check bool) (Printf.sprintf "%s truncated at %d" n limit) (limit < full) truncated)
        engines)
    [ 1; 2; 7; 16; 1000 ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

(* One input, three representations: a lazy world, a cached one and a
   cached one with prefilled rows, each with bond coins [p] at [seed],
   optionally under site percolation and an overlay removing edges
   picked by index from the edge list. Without an overlay the cached
   worlds take [Reveal]'s coin-row and prefilled-row loops. *)
let representation_input =
  QCheck.(
    quad int64 (float_bound_inclusive 1.0)
      (option ~ratio:0.5 (float_bound_inclusive 1.0))
      (option ~ratio:0.5 (list_of_size Gen.(1 -- 6) (int_bound 31))))

let representations (seed, p, site_p, removals) =
  let g = Topology.Hypercube.graph 4 in
  let edges = Array.of_list (G.edge_list g) in
  let overlay w =
    match removals with
    | None -> w
    | Some picks ->
        P.World.remove_edges w (List.map (fun i -> edges.(i mod Array.length edges)) picks)
  in
  let cached = P.World.create ?site_p g ~p ~seed in
  let prefilled = P.World.create ?site_p g ~p ~seed in
  P.World.prefill prefilled;
  (g, overlay (P.World.create ?site_p ~cache:false g ~p ~seed), [ overlay cached; overlay prefilled ])

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"union-find: union implies same" ~count:200
      (pair (int_range 2 50) (list (pair small_nat small_nat)))
      (fun (n, unions) ->
        let uf = P.Union_find.create n in
        List.iter (fun (a, b) -> ignore (P.Union_find.union uf (a mod n) (b mod n))) unions;
        List.for_all (fun (a, b) -> P.Union_find.same uf (a mod n) (b mod n)) unions);
    Test.make ~name:"union-find: sizes partition n" ~count:200
      (pair (int_range 2 50) (list (pair small_nat small_nat)))
      (fun (n, unions) ->
        let uf = P.Union_find.create n in
        List.iter (fun (a, b) -> ignore (P.Union_find.union uf (a mod n) (b mod n))) unions;
        let roots = Hashtbl.create 16 in
        for v = 0 to n - 1 do
          Hashtbl.replace roots (P.Union_find.find uf v) ()
        done;
        let total = Hashtbl.fold (fun r () acc -> acc + P.Union_find.size uf r) roots 0 in
        total = n && Hashtbl.length roots = P.Union_find.set_count uf);
    Test.make ~name:"world: open iff coin below p" ~count:200
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let w = P.World.create g ~p ~seed in
        G.fold_edges g ~init:true ~f:(fun acc u v ->
            acc
            && P.World.is_open w u v
               = Prng.Coin.bernoulli ~seed ~p (g.G.edge_id u v)));
    Test.make ~name:"cached world = lazy world (is_open, neighbors)" ~count:200
      representation_input (fun input ->
        let g, lazy_, cached_worlds = representations input in
        let n = g.G.vertex_count in
        let state w =
          let m = P.Clusters.membership w in
          ( G.fold_edges g ~init:[] ~f:(fun acc u v -> P.World.is_open w u v :: acc),
            List.init n (fun v -> (P.World.open_neighbors w v, P.World.open_degree w v)),
            P.World.count_open_edges w,
            P.Clusters.census w,
            (m.P.Clusters.canonical_root, m.P.Clusters.largest_size),
            List.init n (P.Clusters.member m) )
        in
        let expected = state lazy_ in
        (not (P.World.cached lazy_))
        && List.for_all (fun w -> P.World.cached w && state w = expected) cached_worlds);
    Test.make ~name:"cached reveal = lazy reveal" ~count:100 representation_input
      (fun input ->
        let g, lazy_, cached_worlds = representations input in
        let sorted_ball w v =
          Hashtbl.fold (fun x d acc -> (x, d) :: acc) (P.Reveal.ball w v ~radius:(v mod 4)) []
          |> List.sort compare
        in
        (* Both engines visit in one order, so even [cluster_of]'s list
           order must agree. *)
        let answers w =
          List.init g.G.vertex_count (fun v ->
              ( (P.Reveal.connected w 0 v, P.Reveal.connected ~limit:5 w 0 v),
                (P.Reveal.cluster_of w v, P.Reveal.cluster_of ~limit:5 w v),
                sorted_ball w v ))
        in
        let expected = answers lazy_ in
        List.for_all (fun w -> answers w = expected) cached_worlds);
    Test.make ~name:"oracle distinct <= raw" ~count:100
      (pair int64 (list (pair (int_bound 15) (int_bound 3))))
      (fun (seed, probes) ->
        let g = Topology.Hypercube.graph 4 in
        let w = P.World.create g ~p:0.5 ~seed in
        let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
        List.iter
          (fun (v, bit) -> ignore (P.Oracle.probe o v (Topology.Hypercube.flip v bit)))
          probes;
        P.Oracle.distinct_probes o <= P.Oracle.raw_probes o);
    Test.make ~name:"coupled cuts nest deterministically" ~count:200
      (triple int64 (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (seed, p1, p2) ->
        let lo_p = Float.min p1 p2 and hi_p = Float.max p1 p2 in
        let g = Topology.Hypercube.graph 4 in
        let lo = P.World.create g ~p:lo_p ~seed in
        let hi = P.World.create g ~p:hi_p ~seed in
        G.fold_edges g ~init:true ~f:(fun acc u v ->
            acc && ((not (P.World.is_open lo u v)) || P.World.is_open hi u v)));
    Test.make ~name:"reveal engines agree" ~count:100
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let w = P.World.create g ~p ~seed in
        P.Reveal.cluster_size_via P.Reveal.Table w 0
        = P.Reveal.cluster_size_via P.Reveal.Arena w 0
        && P.Reveal.connected_via P.Reveal.Table w 0 15
           = P.Reveal.connected_via P.Reveal.Arena w 0 15);
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "percolation"
    [
      ( "union-find",
        [
          case "basics" test_uf_basics;
          case "transitive" test_uf_transitive;
          case "chain" test_uf_chain;
          case "negative" test_uf_negative;
        ] );
      ( "world",
        [
          case "determinism" test_world_determinism;
          case "extremes" test_world_extremes;
          case "monotone coupling" test_world_monotone_coupling;
          case "open rate" test_world_open_rate;
          case "open neighbors" test_world_open_neighbors;
          case "invalid p" test_world_invalid_p;
          case "symmetric" test_world_symmetric;
          case "prefilled = fresh" test_world_prefilled_equals_fresh;
        ] );
      ( "oracle",
        [
          case "counting" test_oracle_counting;
          case "consistency" test_oracle_consistency_with_world;
          case "locality enforced" test_oracle_locality_enforced;
          case "closed edge no extension" test_oracle_locality_closed_edge_no_extension;
          case "unrestricted" test_oracle_unrestricted_any_edge;
          case "non-edge" test_oracle_non_edge_rejected;
          case "budget" test_oracle_budget;
          case "budget invalid" test_oracle_budget_invalid;
          case "path_to" test_oracle_path_to;
          case "reached bookkeeping" test_oracle_reached_bookkeeping;
          case "deferred extension" test_oracle_deferred_extension;
          case "unrestricted reach" test_oracle_unrestricted_reach;
        ] );
      ( "reveal",
        [
          case "connected full" test_reveal_connected_full_world;
          case "disconnected empty" test_reveal_disconnected_empty_world;
          case "limit" test_reveal_limit;
          case "matches clusters" test_reveal_matches_clusters;
          case "cluster_of" test_reveal_cluster_of;
          case "ball" test_reveal_ball;
          case "ball = connected within radius" test_reveal_ball_reference;
        ] );
      ( "clusters",
        [
          case "full world" test_census_full_world;
          case "empty world" test_census_empty_world;
          case "sizes sum" test_census_sizes_sum;
          case "in largest" test_in_largest;
          case "in largest: ties canonical" test_in_largest_tie;
        ] );
      ( "coupled",
        [
          case "bond cuts nest" test_world_bond_p_nests;
          case "site cuts nest" test_world_site_p_nests;
        ] );
      ( "reveal engines",
        [
          case "differential agreement" test_engines_differential;
          case "limit convention" test_engines_limit_counts;
        ] );
      ( "chemical",
        [
          case "full distance" test_chemical_distance_full;
          case "disconnected" test_chemical_distance_disconnected;
          case "stretch >= 1" test_chemical_stretch_ge_one;
          case "eccentricity sample" test_chemical_eccentricity_sample;
        ] );
      ( "site percolation",
        [
          case "bond world all alive" test_site_bond_world_all_alive;
          case "extremes" test_site_extremes;
          case "open iff both alive" test_site_edge_open_iff_both_alive;
          case "dead vertex isolated" test_site_dead_vertex_isolated;
          case "alive rate" test_site_alive_rate;
          case "independent coins" test_site_independent_of_bond_coins;
        ] );
      ( "worst-case faults",
        [
          case "removal closes" test_remove_edges_closes_them;
          case "removal cumulative" test_remove_edges_cumulative;
          case "removal non-edge" test_remove_edges_non_edge;
          case "min-cut disconnects" test_worst_case_min_cut_disconnects;
          case "min-cut budget" test_worst_case_min_cut_insufficient_budget;
          case "around source" test_worst_case_around_source;
          case "random distinct" test_worst_case_random_distinct;
          case "over budget capped" test_worst_case_over_budget_capped;
        ] );
      ( "cached vs lazy",
        [
          case "size gate" test_diff_gate;
          case "is_open" test_diff_is_open;
          case "open_neighbors" test_diff_open_neighbors;
          case "reveal" test_diff_reveal;
          case "ball" test_diff_ball;
          case "oracle" test_diff_oracle;
          case "router outcomes" test_diff_router_outcomes;
          case "site percolation" test_diff_site;
          case "removal overlay" test_diff_removal_overlay;
          case "shared across domains" test_diff_shared_across_domains;
          case "one csr per graph" test_diff_shared_csr;
        ] );
      ( "scenario",
        [
          case "exact budget" test_scenario_exact_budget;
          case "sampling pure" test_scenario_sampling_pure;
          case "overlay differential" test_scenario_overlay_differential;
          case "infection blob connected" test_scenario_infection_blob_connected;
          case "validation" test_scenario_validation;
          case "known answers" test_scenario_known_answers;
          case "pad to budget" test_scenario_pad_to_budget;
          case "reused sampler = fresh sampler" test_scenario_sampler_reuse;
          case "sampler validation" test_scenario_sampler_validation;
        ] );
      ( "scratch",
        [
          case "larger then smaller graph" test_scratch_graph_sizes;
          case "budget exceeded then full" test_scratch_budget_then_full;
          case "router raises" test_scratch_router_raises;
          case "nested leases" test_scratch_nested;
          case "reveals repeat" test_scratch_reveals_repeat;
          case "jobs 4 = jobs 1" test_scratch_domains;
        ] );
      ( "scaling",
        [
          case "interpolate" test_scaling_interpolate;
          case "crossing exact" test_scaling_crossing_exact;
          case "no crossing" test_scaling_no_crossing;
          case "estimate threshold" test_scaling_estimate_threshold;
        ] );
      ( "branching",
        [
          case "survival closed form" test_branching_survival_closed_form;
          case "subcritical dies" test_branching_subcritical_dies;
          case "monotone in depth" test_branching_monotone_in_depth;
          case "duality" test_branching_dual;
          case "total progeny" test_branching_total_progeny;
          case "double tree recursion" test_branching_double_tree_matches_e6;
          case "simulation matches survival" test_branching_simulation_matches_survival;
          case "extinct sizes ~ c(p)" test_branching_extinct_sizes;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
