(* Tests for the topology library.

   A generic battery runs against every family (structure invariants that
   percolation correctness depends on), followed by family-specific
   facts. *)

module G = Topology.Graph

(* ------------------------------------------------------------------ *)
(* Generic battery                                                     *)

let check_neighbor_symmetry g =
  for u = 0 to g.G.vertex_count - 1 do
    Array.iter
      (fun v ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d in N(%d)" g.G.name u v)
          true
          (Array.mem u (g.G.neighbors v)))
      (g.G.neighbors u)
  done

let check_degree_consistency g =
  for v = 0 to g.G.vertex_count - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: degree %d" g.G.name v)
      (Array.length (g.G.neighbors v))
      (g.G.degree v)
  done

let check_no_self_loops_or_duplicates g =
  for v = 0 to g.G.vertex_count - 1 do
    let around = g.G.neighbors v in
    Array.iter
      (fun w -> Alcotest.(check bool) "no self loop" true (w <> v))
      around;
    let distinct = Hashtbl.create 8 in
    Array.iter (fun w -> Hashtbl.replace distinct w ()) around;
    Alcotest.(check int)
      (Printf.sprintf "%s: no duplicate neighbours of %d" g.G.name v)
      (Array.length around) (Hashtbl.length distinct)
  done

let check_edge_ids g =
  (* Symmetric, within bounds, injective over all edges, and failing on a
     sample of non-edges. *)
  let seen = Hashtbl.create 1024 in
  G.iter_edges g (fun u v ->
      let id = g.G.edge_id u v in
      let id' = g.G.edge_id v u in
      Alcotest.(check int) (Printf.sprintf "%s: symmetric id (%d,%d)" g.G.name u v) id id';
      Alcotest.(check bool)
        (Printf.sprintf "%s: id %d in bounds" g.G.name id)
        true
        (id >= 0 && id < g.G.edge_id_bound);
      (match Hashtbl.find_opt seen id with
      | Some (u0, v0) ->
          Alcotest.failf "%s: id %d reused by (%d,%d) and (%d,%d)" g.G.name id u0 v0 u v
      | None -> ());
      Hashtbl.replace seen id (u, v))

let check_non_edges_raise g =
  let n = g.G.vertex_count in
  (* Self pairs and a deterministic sample of random-ish pairs. *)
  for v = 0 to min (n - 1) 40 do
    match g.G.edge_id v v with
    | _ -> Alcotest.failf "%s: self edge (%d,%d) accepted" g.G.name v v
    | exception G.Not_an_edge _ -> ()
  done;
  let stream = Prng.Stream.create 1234L in
  let trials = 200 in
  for _ = 1 to trials do
    let u, v = Prng.Sample.distinct_pair stream n in
    let adjacent = Array.mem v (g.G.neighbors u) in
    match g.G.edge_id u v with
    | _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: edge_id accepts only edges (%d,%d)" g.G.name u v)
          true adjacent
    | exception G.Not_an_edge _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: edge_id rejects only non-edges (%d,%d)" g.G.name u v)
          false adjacent
  done

let check_metric_against_bfs g ~samples =
  match g.G.distance with
  | None -> ()
  | Some metric ->
      let stream = Prng.Stream.create 77L in
      for _ = 1 to samples do
        let u, v = Prng.Sample.distinct_pair stream g.G.vertex_count in
        match G.bfs_distance g u v with
        | Some d ->
            Alcotest.(check int)
              (Printf.sprintf "%s: metric(%d,%d)" g.G.name u v)
              d (metric u v)
        | None -> Alcotest.failf "%s: disconnected base graph" g.G.name
      done

let generic_battery name g ~metric_samples =
  [
    Alcotest.test_case (name ^ ": neighbour symmetry") `Quick (fun () ->
        check_neighbor_symmetry g);
    Alcotest.test_case (name ^ ": degree consistency") `Quick (fun () ->
        check_degree_consistency g);
    Alcotest.test_case (name ^ ": simple graph") `Quick (fun () ->
        check_no_self_loops_or_duplicates g);
    Alcotest.test_case (name ^ ": edge ids injective") `Quick (fun () -> check_edge_ids g);
    Alcotest.test_case (name ^ ": non-edges rejected") `Quick (fun () ->
        check_non_edges_raise g);
    Alcotest.test_case (name ^ ": metric = BFS") `Quick (fun () ->
        check_metric_against_bfs g ~samples:metric_samples);
  ]

(* ------------------------------------------------------------------ *)
(* Family-specific tests                                               *)

let test_hypercube_counts () =
  let n = 7 in
  let g = Topology.Hypercube.graph n in
  Alcotest.(check int) "vertices" 128 g.G.vertex_count;
  Alcotest.(check int) "edges" (n * (1 lsl (n - 1))) (G.edge_count g);
  Alcotest.(check int) "dimension" n (Topology.Hypercube.dimension g)

let test_hypercube_helpers () =
  Alcotest.(check int) "popcount" 3 (Topology.Hypercube.popcount 0b10101);
  Alcotest.(check int) "hamming" 2 (Topology.Hypercube.hamming 0b110 0b011);
  Alcotest.(check int) "flip" 0b100 (Topology.Hypercube.flip 0b101 0);
  Alcotest.(check int) "antipode" 0b111 (Topology.Hypercube.antipode ~n:3 0)

let test_hypercube_fixed_path () =
  let n = 6 in
  let u = 0b000000 and v = 0b101101 in
  let path = Topology.Hypercube.fixed_path ~n u v in
  Alcotest.(check int) "length" (Topology.Hypercube.hamming u v + 1) (List.length path);
  Alcotest.(check int) "starts" u (List.hd path);
  Alcotest.(check int) "ends" v (List.nth path (List.length path - 1));
  let g = Topology.Hypercube.graph n in
  let rec check_consecutive = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "adjacent" true (G.is_edge g a b);
        check_consecutive rest
    | [ _ ] | [] -> ()
  in
  check_consecutive path

let test_hypercube_bounds () =
  Alcotest.check_raises "n=0" (Invalid_argument "Hypercube.graph: need 1 <= n <= 30")
    (fun () -> ignore (Topology.Hypercube.graph 0))

let test_mesh_counts () =
  let g = Topology.Mesh.graph ~d:2 ~m:5 in
  Alcotest.(check int) "vertices" 25 g.G.vertex_count;
  (* 2-d grid with side m: 2 m (m-1) edges. *)
  Alcotest.(check int) "edges" 40 (G.edge_count g)

let test_mesh_coords_roundtrip () =
  let d = 3 and m = 4 in
  for v = 0 to (m * m * m) - 1 do
    let c = Topology.Mesh.coords ~d ~m v in
    Alcotest.(check int) "roundtrip" v (Topology.Mesh.index ~m c)
  done

let test_mesh_corner_degree () =
  let g = Topology.Mesh.graph ~d:3 ~m:4 in
  Alcotest.(check int) "corner" 3 (g.G.degree 0);
  let centre = Topology.Mesh.centre ~d:3 ~m:4 in
  Alcotest.(check int) "centre" 6 (g.G.degree centre)

let test_mesh_fixed_path () =
  let d = 2 and m = 6 in
  let u = Topology.Mesh.index ~m [| 1; 1 |] and v = Topology.Mesh.index ~m [| 4; 3 |] in
  let path = Topology.Mesh.fixed_path ~d ~m u v in
  Alcotest.(check int) "length" (Topology.Mesh.l1_distance ~d ~m u v + 1)
    (List.length path);
  let g = Topology.Mesh.graph ~d ~m in
  let rec ok = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "adjacent" true (G.is_edge g a b);
        ok rest
    | [ _ ] | [] -> ()
  in
  ok path

(* Both metrics against the coordinate-array formula, on every ordered
   vertex pair of each shape with d <= 3 and m <= 5 the constructors
   accept (the torus needs m >= 3). *)
let test_l1_distance_matches_coords () =
  let per_axis ~torus ~m a b =
    if torus then
      let forward = (b - a + m) mod m in
      Stdlib.min forward (m - forward)
    else abs (a - b)
  in
  List.iter
    (fun (torus, name, metric, m_min) ->
      for d = 1 to 3 do
        for m = m_min to 5 do
          let size = int_of_float (float_of_int m ** float_of_int d) in
          for u = 0 to size - 1 do
            for v = 0 to size - 1 do
              let cu = Topology.Mesh.coords ~d ~m u and cv = Topology.Mesh.coords ~d ~m v in
              let expected = ref 0 in
              for axis = 0 to d - 1 do
                expected := !expected + per_axis ~torus ~m cu.(axis) cv.(axis)
              done;
              if metric ~d ~m u v <> !expected then
                Alcotest.failf "%s d=%d m=%d (%d,%d): %d, want %d" name d m u v
                  (metric ~d ~m u v) !expected
            done
          done
        done
      done)
    [
      (false, "mesh", Topology.Mesh.l1_distance, 2);
      (true, "torus", Topology.Torus.l1_distance, 3);
    ]

let test_torus_degree_regular () =
  let g = Topology.Torus.graph ~d:2 ~m:5 in
  for v = 0 to g.G.vertex_count - 1 do
    Alcotest.(check int) "degree 2d" 4 (g.G.degree v)
  done;
  Alcotest.(check int) "edges" (2 * 25) (G.edge_count g)

let test_torus_wraparound_distance () =
  let d = 1 and m = 10 in
  Alcotest.(check int) "wrap" 1 (Topology.Torus.l1_distance ~d ~m 0 9);
  Alcotest.(check int) "inner" 4 (Topology.Torus.l1_distance ~d ~m 0 4)

let test_torus_fixed_path_wraps () =
  let d = 1 and m = 10 in
  let path = Topology.Torus.fixed_path ~d ~m 0 8 in
  Alcotest.(check (list int)) "short way round" [ 0; 9; 8 ] path

(* Wraparound at the smallest side, m = 3, where a wrap edge spans
   m - 1 = 2 strides: [None] marks a pair [edge_id] must reject (two
   axes, a gap that carries into the next axis, out of range). Then
   every ordered pair, against the definition from coordinates. *)
let test_torus_edge_ids_m3 () =
  let known =
    [
      ((2, 0, 1), Some 0); ((2, 1, 0), Some 0); ((2, 0, 2), Some 4); ((2, 0, 3), Some 1);
      ((2, 0, 6), Some 13); ((2, 6, 0), Some 13); ((2, 8, 6), Some 16); ((2, 8, 2), Some 17);
      ((2, 0, 4), None); ((2, 2, 3), None); ((2, 0, 9), None); ((2, 0, -1), None);
      ((3, 0, 1), Some 0); ((3, 2, 0), Some 6); ((3, 0, 9), Some 2); ((3, 0, 18), Some 56);
      ((3, 6, 0), Some 19); ((3, 13, 4), Some 14); ((3, 13, 22), Some 41); ((3, 26, 8), Some 80);
      ((3, 2, 3), None); ((3, 8, 9), None); ((3, 0, 26), None); ((3, 0, 27), None);
    ]
  in
  let id_opt g u v = match g.G.edge_id u v with id -> Some id | exception G.Not_an_edge _ -> None in
  List.iter
    (fun ((d, u, v), expected) ->
      Alcotest.(check (option int))
        (Printf.sprintf "torus d=%d m=3 (%d,%d)" d u v)
        expected
        (id_opt (Topology.Torus.graph ~d ~m:3) u v))
    known;
  List.iter
    (fun d ->
      let m = 3 in
      let g = Topology.Torus.graph ~d ~m in
      for u = 0 to g.G.vertex_count - 1 do
        for v = 0 to g.G.vertex_count - 1 do
          let cu = Topology.Mesh.coords ~d ~m u and cv = Topology.Mesh.coords ~d ~m v in
          let expected =
            match List.filter (fun a -> cu.(a) <> cv.(a)) (List.init d Fun.id) with
            | [ a ] when (cu.(a) + 1) mod m = cv.(a) -> Some ((u * d) + a)
            | [ a ] when (cv.(a) + 1) mod m = cu.(a) -> Some ((v * d) + a)
            | _ -> None
          in
          Alcotest.(check (option int)) (Printf.sprintf "d=%d (%d,%d)" d u v) expected (id_opt g u v)
        done
      done)
    [ 1; 2; 3 ]

let test_binary_tree_structure () =
  let n = 4 in
  let g = Topology.Binary_tree.graph n in
  Alcotest.(check int) "vertices" 31 g.G.vertex_count;
  Alcotest.(check int) "edges" 30 (G.edge_count g);
  Alcotest.(check int) "root degree" 2 (g.G.degree Topology.Binary_tree.root);
  Alcotest.(check int) "root depth" 0 (Topology.Binary_tree.depth_of 0);
  Alcotest.(check (array int)) "leaves" (Array.init 16 (fun i -> 15 + i))
    (Topology.Binary_tree.leaves ~n);
  Array.iter
    (fun leaf ->
      Alcotest.(check bool) "is leaf" true (Topology.Binary_tree.is_leaf ~n leaf);
      Alcotest.(check int) "leaf degree" 1 (g.G.degree leaf))
    (Topology.Binary_tree.leaves ~n)

let test_binary_tree_parent_child () =
  Alcotest.(check bool) "root has no parent" true (Topology.Binary_tree.parent 0 = None);
  (match Topology.Binary_tree.children ~n:3 0 with
  | Some (l, r) ->
      Alcotest.(check int) "left" 1 l;
      Alcotest.(check int) "right" 2 r
  | None -> Alcotest.fail "root has children");
  Alcotest.(check bool) "leaf childless" true (Topology.Binary_tree.children ~n:3 7 = None)

let test_double_tree_structure () =
  let n = 4 in
  let g = Topology.Double_tree.graph n in
  Alcotest.(check int) "vertices" ((3 * 16) - 2) g.G.vertex_count;
  (* Two depth-n trees: 2 * (2^(n+1) - 2) edges. *)
  Alcotest.(check int) "edges" (2 * 30) (G.edge_count g);
  Alcotest.(check int) "root1 degree" 2 (g.G.degree Topology.Double_tree.root1);
  Alcotest.(check int) "root2 degree" 2 (g.G.degree (Topology.Double_tree.root2 ~n));
  (* Leaves have one parent in each tree. *)
  for j = 0 to 15 do
    let leaf = Topology.Double_tree.leaf ~n j in
    Alcotest.(check int) "leaf degree" 2 (g.G.degree leaf);
    Alcotest.(check bool) "leaf role" true
      (Topology.Double_tree.role_of ~n leaf = Topology.Double_tree.Leaf);
    Alcotest.(check int) "leaf depth" n (Topology.Double_tree.depth_of ~n leaf)
  done

let test_double_tree_mirror () =
  let n = 4 in
  let g = Topology.Double_tree.graph n in
  (* The mirror of every tree-1 edge is a tree-2 edge, mirroring is an
     involution, and leaf edges share the leaf endpoint. *)
  G.iter_edges g (fun u v ->
      let mu, mv = Topology.Double_tree.mirror_edge ~n u v in
      Alcotest.(check bool) "mirror is an edge" true (G.is_edge g mu mv);
      let bu, bv = Topology.Double_tree.mirror_edge ~n mu mv in
      Alcotest.(check bool) "involution" true
        ((bu, bv) = (min u v, max u v) || (bu, bv) = (u, v) || (bv, bu) = (u, v)))

let test_double_tree_root_distance () =
  let n = 5 in
  let g = Topology.Double_tree.graph n in
  Alcotest.(check (option int)) "distance 2n" (Some (2 * n))
    (G.bfs_distance g Topology.Double_tree.root1 (Topology.Double_tree.root2 ~n))

let test_complete_structure () =
  let g = Topology.Complete.graph 10 in
  Alcotest.(check int) "edges" 45 (G.edge_count g);
  Alcotest.(check int) "degree" 9 (g.G.degree 3);
  Alcotest.(check int) "pair id" 0 (Topology.Complete.edge_id_of_pair 0 1);
  Alcotest.(check int) "pair id sym" (Topology.Complete.edge_id_of_pair 5 3)
    (Topology.Complete.edge_id_of_pair 3 5)

let test_theta_structure () =
  let d = 7 in
  let g = Topology.Theta.graph d in
  Alcotest.(check int) "vertices" (d + 2) g.G.vertex_count;
  Alcotest.(check int) "edges" (2 * d) (G.edge_count g);
  Alcotest.(check int) "u degree" d (g.G.degree Topology.Theta.endpoint_u);
  Alcotest.(check int) "v degree" d (g.G.degree Topology.Theta.endpoint_v);
  Alcotest.(check int) "middle degree" 2 (g.G.degree (Topology.Theta.middle 3))

let test_theta_probability () =
  Alcotest.(check (float 1e-12)) "exact d=1" 0.25
    (Topology.Theta.connection_probability ~d:1 ~p:0.5);
  (* 1 - (1 - p^2)^d *)
  Alcotest.(check (float 1e-12)) "exact d=2"
    (1.0 -. (0.75 *. 0.75))
    (Topology.Theta.connection_probability ~d:2 ~p:0.5)

let test_cycle_matching_structure () =
  let stream = Prng.Stream.create 5L in
  let g, partner = Topology.Cycle_matching.create stream 40 in
  Alcotest.(check int) "vertices" 40 g.G.vertex_count;
  for v = 0 to 39 do
    let w = partner v in
    Alcotest.(check bool) "no fixed point" true (w <> v);
    Alcotest.(check int) "involution" v (partner w);
    Alcotest.(check bool) "degree 2 or 3" true
      (let deg = g.G.degree v in
       deg = 2 || deg = 3)
  done

let test_de_bruijn_structure () =
  let n = 6 in
  let g = Topology.De_bruijn.graph n in
  Alcotest.(check int) "vertices" 64 g.G.vertex_count;
  for v = 0 to 63 do
    let deg = g.G.degree v in
    Alcotest.(check bool) "degree <= 4" true (deg >= 1 && deg <= 4)
  done;
  Alcotest.(check int) "shift" 0b0101 (Topology.De_bruijn.shift ~n:4 0b1010 1)

let test_shuffle_exchange_structure () =
  let n = 6 in
  let g = Topology.Shuffle_exchange.graph n in
  Alcotest.(check int) "vertices" 64 g.G.vertex_count;
  Alcotest.(check int) "rotl" 0b000011 (Topology.Shuffle_exchange.rotate_left ~n 0b100001);
  Alcotest.(check int) "rotr" 0b100001 (Topology.Shuffle_exchange.rotate_right ~n 0b000011);
  for v = 0 to 63 do
    Alcotest.(check int) "rot round trip" v
      (Topology.Shuffle_exchange.rotate_right ~n (Topology.Shuffle_exchange.rotate_left ~n v))
  done

let test_butterfly_structure () =
  let n = 3 in
  let g = Topology.Butterfly.graph n in
  Alcotest.(check int) "vertices" (3 * 8) g.G.vertex_count;
  Alcotest.(check int) "edges" (2 * 24) (G.edge_count g);
  for v = 0 to g.G.vertex_count - 1 do
    Alcotest.(check int) "degree 4" 4 (g.G.degree v)
  done;
  let v = Topology.Butterfly.vertex ~n ~level:2 ~row:5 in
  Alcotest.(check int) "level" 2 (Topology.Butterfly.level_of ~n v);
  Alcotest.(check int) "row" 5 (Topology.Butterfly.row_of ~n v)

let test_mincut_known_values () =
  let cube = Topology.Hypercube.graph 5 in
  Alcotest.(check int) "hypercube antipodal" 5
    (Topology.Mincut.max_flow cube ~source:0 ~sink:31);
  Alcotest.(check int) "hypercube adjacent" 5
    (Topology.Mincut.max_flow cube ~source:0 ~sink:1);
  let k = Topology.Complete.graph 8 in
  Alcotest.(check int) "complete" 7 (Topology.Mincut.max_flow k ~source:0 ~sink:5);
  let theta = Topology.Theta.graph 6 in
  Alcotest.(check int) "theta u-v" 6
    (Topology.Mincut.max_flow theta ~source:Topology.Theta.endpoint_u
       ~sink:Topology.Theta.endpoint_v);
  let tree = Topology.Binary_tree.graph 4 in
  Alcotest.(check int) "tree" 1 (Topology.Mincut.max_flow tree ~source:0 ~sink:20);
  let grid = Topology.Mesh.graph ~d:2 ~m:6 in
  Alcotest.(check int) "grid corners" 2
    (Topology.Mincut.max_flow grid ~source:0 ~sink:35)

let test_mincut_cut_matches_flow () =
  List.iter
    (fun (g, source, sink) ->
      let flow = Topology.Mincut.max_flow g ~source ~sink in
      let cut = Topology.Mincut.min_cut g ~source ~sink in
      Alcotest.(check int)
        (Printf.sprintf "%s: |cut| = flow" g.G.name)
        flow (List.length cut);
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool) "cut member is an edge" true (G.is_edge g u v))
        cut)
    [
      (Topology.Hypercube.graph 5, 0, 31);
      (Topology.Mesh.graph ~d:2 ~m:6, 0, 35);
      (Topology.Theta.graph 5, 0, 1);
      (Topology.Double_tree.graph 4, 0, Topology.Double_tree.root2 ~n:4);
    ]

let test_mincut_duality_via_percolation () =
  (* Menger, machine-checked end-to-end: removing a minimum cut from a
     fault-free world disconnects the pair; removing any one edge fewer
     leaves it connected. Run over several graphs. *)
  List.iter
    (fun (g, source, sink) ->
      let cut = Topology.Mincut.min_cut g ~source ~sink in
      let world = Percolation.World.create g ~p:1.0 ~seed:1L in
      let cut_world = Percolation.World.remove_edges world cut in
      (match Percolation.Reveal.connected cut_world source sink with
      | Percolation.Reveal.Disconnected -> ()
      | Percolation.Reveal.Connected _ | Percolation.Reveal.Unknown ->
          Alcotest.failf "%s: removing the min cut did not disconnect" g.G.name);
      match cut with
      | [] -> Alcotest.failf "%s: empty cut on a connected pair" g.G.name
      | _ :: partial ->
          let partial_world = Percolation.World.remove_edges world partial in
          (match Percolation.Reveal.connected partial_world source sink with
          | Percolation.Reveal.Connected _ -> ()
          | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown ->
              Alcotest.failf "%s: cut minus one edge still disconnects" g.G.name))
    [
      (Topology.Hypercube.graph 5, 0, 31);
      (Topology.Mesh.graph ~d:2 ~m:6, 0, 35);
      (Topology.Theta.graph 5, 0, 1);
      (Topology.Complete.graph 9, 2, 7);
      (Topology.Butterfly.graph 3, 0, 23);
    ]

let test_mincut_symmetric () =
  List.iter
    (fun (g, a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: flow symmetric" g.G.name)
        (Topology.Mincut.max_flow g ~source:a ~sink:b)
        (Topology.Mincut.max_flow g ~source:b ~sink:a))
    [
      (Topology.Hypercube.graph 5, 0, 31);
      (Topology.Double_tree.graph 4, 0, Topology.Double_tree.root2 ~n:4);
      (Topology.De_bruijn.graph 5, 1, 30);
    ]

let test_mincut_bounded_by_degree () =
  let stream = Prng.Stream.create 41L in
  let g = Topology.De_bruijn.graph 6 in
  for _ = 1 to 30 do
    let u, v = Prng.Sample.distinct_pair stream g.G.vertex_count in
    let flow = Topology.Mincut.max_flow g ~source:u ~sink:v in
    Alcotest.(check bool)
      (Printf.sprintf "flow(%d,%d)=%d bounded" u v flow)
      true
      (flow <= min (g.G.degree u) (g.G.degree v))
  done

(* The Edmonds–Karp [Mincut] ran before it moved onto [Csr] rows: flow
   per edge id and BFS predecessors in Hashtbls, a [Queue] frontier,
   and a fresh [neighbors] array per expanded vertex. Kept as the
   differential oracle: the flat version must find the same flow and
   the same cut list, order included, because [Scenario]'s [Min_cut]
   model pads its fault set from that list. *)
let reference_min_cut (g : G.t) ~source ~sink =
  let flow = Hashtbl.create 256 in
  (* edge id -> the vertex its unit of flow points at *)
  let arc_usable u v =
    match Hashtbl.find_opt flow (g.G.edge_id u v) with
    | None -> true
    | Some toward -> toward = u
  in
  let push_arc u v =
    let id = g.G.edge_id u v in
    match Hashtbl.find_opt flow id with
    | None -> Hashtbl.replace flow id v
    | Some toward when toward = u -> Hashtbl.remove flow id
    | Some _ -> invalid_arg "reference_min_cut: arc saturated"
  in
  let reach ~stop =
    let seen = Hashtbl.create 64 in
    Hashtbl.replace seen source source;
    let queue = Queue.create () in
    Queue.push source queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          if (not (Hashtbl.mem seen v)) && arc_usable u v then begin
            Hashtbl.replace seen v u;
            if v = stop then found := true else Queue.push v queue
          end)
        (g.G.neighbors u)
    done;
    (seen, !found)
  in
  let value = ref 0 in
  let rec augment () =
    let pred, found = reach ~stop:sink in
    if found then begin
      let rec walk v =
        let u = Hashtbl.find pred v in
        if u <> v then begin
          walk u;
          push_arc u v
        end
      in
      walk sink;
      incr value;
      augment ()
    end
  in
  augment ();
  let side, _ = reach ~stop:(-1) in
  let cut =
    G.fold_edges g ~init:[] ~f:(fun acc u v ->
        let u_in = Hashtbl.mem side u and v_in = Hashtbl.mem side v in
        if u_in && not v_in then (u, v) :: acc
        else if v_in && not u_in then (v, u) :: acc
        else acc)
  in
  (!value, cut)

(* Graph families for the differential test, each sized from [k]. *)
let mincut_families =
  [|
    (fun k _ -> Topology.Hypercube.graph (2 + (k mod 5)));
    (fun k _ -> Topology.Mesh.graph ~d:2 ~m:(2 + (k mod 6)));
    (fun k _ -> Topology.Mesh.graph ~d:3 ~m:(2 + (k mod 3)));
    (fun k _ -> Topology.Torus.graph ~d:2 ~m:(3 + (k mod 4)));
    (fun k _ -> Topology.Complete.graph (2 + (k mod 9)));
    (fun k _ -> Topology.De_bruijn.graph (2 + (k mod 5)));
    (fun k _ -> Topology.Butterfly.graph (3 + (k mod 2)));
    (fun k _ -> Topology.Double_tree.graph (1 + (k mod 5)));
    (fun k _ -> Topology.Theta.graph (1 + (k mod 9)));
    (fun k stream ->
      Topology.Small_world.graph stream ~m:(3 + (k mod 5)) ~r:(float_of_int (k mod 3)));
  |]

let mincut_differential =
  QCheck.Test.make ~name:"mincut = reference Edmonds-Karp" ~count:300
    QCheck.(
      triple (int_bound (Array.length mincut_families - 1)) small_nat int64)
    (fun (family, k, seed) ->
      let stream = Prng.Stream.create seed in
      let g = mincut_families.(family) k (Prng.Stream.split stream 1) in
      let source, sink = Prng.Sample.distinct_pair stream g.G.vertex_count in
      let flow, cut = reference_min_cut g ~source ~sink in
      Topology.Mincut.max_flow g ~source ~sink = flow
      && Topology.Mincut.min_cut g ~source ~sink = cut)

let test_mincut_errors () =
  let g = Topology.Hypercube.graph 4 in
  Alcotest.check_raises "same vertex" (Invalid_argument "Mincut: source = sink")
    (fun () -> ignore (Topology.Mincut.max_flow g ~source:3 ~sink:3))

let test_small_world_contact_map () =
  let stream = Prng.Stream.create 17L in
  let g, contact = Topology.Small_world.create stream ~m:8 ~r:2.0 in
  for u = 0 to g.G.vertex_count - 1 do
    let c = contact u in
    Alcotest.(check bool) "contact differs" true (c <> u);
    Alcotest.(check bool) "contact in range" true (c >= 0 && c < g.G.vertex_count);
    Alcotest.(check bool) "contact adjacent" true (Array.mem c (g.G.neighbors u))
  done

let test_small_world_contains_grid () =
  let stream = Prng.Stream.create 18L in
  let g = Topology.Small_world.graph stream ~m:6 ~r:1.0 in
  let grid = Topology.Mesh.graph ~d:2 ~m:6 in
  G.iter_edges grid (fun u v ->
      Alcotest.(check bool) "grid edge present" true (G.is_edge g u v);
      Alcotest.(check int) "grid edge keeps its id" (grid.G.edge_id u v)
        (g.G.edge_id u v))

let test_small_world_contact_bias () =
  (* High r: contacts concentrate near the node; r = 0: uniform. Compare
     mean contact distance. *)
  let m = 16 in
  let mean_contact_distance r =
    let stream = Prng.Stream.create 19L in
    let g, contact = Topology.Small_world.create stream ~m ~r in
    let total = ref 0 in
    for u = 0 to g.G.vertex_count - 1 do
      total := !total + Topology.Mesh.l1_distance ~d:2 ~m u (contact u)
    done;
    float_of_int !total /. float_of_int g.G.vertex_count
  in
  Alcotest.(check bool) "r=4 contacts shorter than r=0" true
    (mean_contact_distance 4.0 < mean_contact_distance 0.0)

(* Contact maps recorded from the reference sampler, which summed
   [Mesh.l1_distance u v ** -. r] over every vertex twice per node, at
   stream seed 21. The table-driven sampler must draw exactly these:
   same weights, same summation order, same stream draws. *)
let small_world_known_contacts =
  [
    (3, 0.0, "1 7 6 2 7 0 8 3 7");
    (3, 2.0, "1 4 5 2 7 0 8 5 7");
    (3, 4.0, "1 4 5 1 7 1 7 6 7");
    ( 5,
      0.0,
      "1 20 17 8 19 0 23 11 24 4 8 16 15 23 4 12 19 14 0 4 3 18 19 14 \
       14" );
    ( 5,
      2.0,
      "1 10 7 4 10 0 18 8 22 4 9 14 13 22 9 16 20 18 2 13 10 22 23 22 \
       19" );
    ( 5,
      4.0,
      "1 6 7 2 9 0 11 6 14 4 11 12 13 18 9 16 21 18 8 14 15 22 23 22 \
       23" );
    ( 12,
      0.0,
      "5 116 98 46 110 3 136 63 138 24 52 94 86 134 28 76 111 86 2 30 \
       21 111 116 89 89 80 4 90 32 92 37 106 21 45 100 133 110 95 135 \
       68 18 57 57 55 19 55 88 31 43 68 96 80 8 22 79 111 88 124 40 \
       72 96 7 42 80 125 114 70 51 93 15 141 2 128 8 81 30 16 91 113 \
       39 47 75 57 129 53 99 0 70 38 25 53 51 71 140 64 23 7 26 137 \
       59 108 130 9 40 77 39 108 116 51 45 141 51 84 110 32 29 76 88 \
       75 23 32 67 80 4 16 29 70 92 4 71 7 98 14 91 70 82 73 141 37 \
       74 74 131 118 48" );
    ( 12,
      2.0,
      "1 37 24 4 30 2 90 17 104 8 11 31 24 79 4 20 39 29 3 10 8 43 46 \
       35 36 29 2 39 16 41 19 44 20 31 46 90 52 49 96 40 25 40 41 42 \
       30 44 55 35 37 50 62 52 18 38 55 68 59 81 46 58 72 24 50 64 89 \
       79 65 62 77 43 133 11 99 31 75 62 50 81 90 67 69 82 80 107 73 \
       96 3 86 76 66 81 80 91 132 93 70 37 75 132 97 112 125 51 91 \
       103 93 118 119 96 97 136 99 113 125 96 92 115 118 117 90 97 \
       120 121 36 81 101 124 128 39 127 56 130 72 132 122 126 124 140 \
       114 127 128 142 141 119" );
    ( 12,
      4.0,
      "1 13 14 4 16 3 19 8 32 8 11 23 13 25 2 16 28 18 5 7 8 33 34 22 \
       25 26 13 28 16 30 19 42 20 32 35 47 48 38 50 38 28 40 41 42 32 \
       44 47 35 36 48 51 52 40 41 55 67 57 69 56 58 72 49 61 64 76 77 \
       65 66 69 57 94 47 84 61 75 63 64 78 90 75 79 82 81 95 85 86 50 \
       86 77 77 89 90 91 113 93 83 84 85 111 98 112 113 90 101 105 95 \
       118 119 109 108 134 110 113 125 102 103 117 118 119 107 108 \
       120 123 100 112 113 125 128 106 128 118 142 120 132 133 134 \
       135 139 126 138 139 142 143 131" );
  ]

let test_small_world_known_contacts () =
  List.iter
    (fun (m, r, expected) ->
      let _, contact = Topology.Small_world.create (Prng.Stream.create 21L) ~m ~r in
      let expected =
        String.split_on_char ' ' expected |> List.map int_of_string |> Array.of_list
      in
      Alcotest.(check (array int))
        (Printf.sprintf "contacts m=%d r=%.0f" m r)
        expected
        (Array.init (m * m) contact))
    small_world_known_contacts

let check_neighbors_fresh g =
  for v = 0 to g.G.vertex_count - 1 do
    let a = g.G.neighbors v in
    let b = g.G.neighbors v in
    Alcotest.(check (array int)) (Printf.sprintf "%s: N(%d) stable" g.G.name v) a b;
    if Array.length a > 0 then begin
      (* Physically distinct (empty arrays share the atom, so only
         non-empty rows can witness freshness)... *)
      Alcotest.(check bool) (Printf.sprintf "%s: N(%d) fresh" g.G.name v) true (a != b);
      (* ...and mutating a returned array must not leak into later
         calls — World's lazy path filters the row in place. *)
      a.(0) <- -1;
      Alcotest.(check (array int))
        (Printf.sprintf "%s: N(%d) mutation isolated" g.G.name v)
        b (g.G.neighbors v)
    end
  done

let test_registry_neighbors_fresh () =
  (* The freshness contract documented on [Graph.t.neighbors], enforced
     for every family in the registry: each call returns a newly
     allocated, unaliased array. *)
  let stream = Prng.Stream.create 424L in
  List.iter
    (fun entry ->
      let instance = entry.Topology.Registry.build ~size:6 stream in
      check_neighbors_fresh instance.Topology.Registry.graph)
    Topology.Registry.entries

(* ------------------------------------------------------------------ *)
(* CSR rows                                                            *)

(* Every registry family at its smallest legal size and one mid size
   (the smallest is checked to be the smallest), plus the 3-torus and
   the small-world graph, which the registry lacks. Hypercube, mesh
   and torus fill their rows natively; every other family fills them
   generically, so for those the comparison pins the cell plumbing. *)
let csr_sizes =
  [
    ("hypercube", [ 1; 10 ]);
    ("mesh2", [ 2; 32 ]);
    ("mesh3", [ 2; 6 ]);
    ("torus2", [ 3; 32 ]);
    ("tree", [ 1; 6 ]);
    ("double-tree", [ 1; 6 ]);
    ("complete", [ 2; 12 ]);
    ("theta", [ 1; 9 ]);
    ("de-bruijn", [ 2; 6 ]);
    ("shuffle-exchange", [ 2; 6 ]);
    ("butterfly", [ 3; 5 ]);
    ("cycle-matching", [ 4; 30 ]);
  ]

let check_csr_matches_generic g =
  let native = Topology.Csr.of_graph g and generic = Topology.Csr.build g in
  Alcotest.(check (array int)) (g.G.name ^ ": xadj") generic.xadj native.xadj;
  Alcotest.(check (array int)) (g.G.name ^ ": targets") generic.targets native.targets;
  Alcotest.(check (array int)) (g.G.name ^ ": edge_ids") generic.edge_ids native.edge_ids

let test_csr_matches_generic () =
  let stream = Prng.Stream.create 31L in
  Alcotest.(check (list string))
    "every registry family is listed"
    (Topology.Registry.names ()) (List.map fst csr_sizes);
  List.iter
    (fun (name, sizes) ->
      let entry = Option.get (Topology.Registry.find name) in
      let build size = (entry.Topology.Registry.build ~size stream).Topology.Registry.graph in
      (match build (List.hd sizes - 1) with
      | _ -> Alcotest.failf "%s: size %d is legal" name (List.hd sizes - 1)
      | exception Invalid_argument _ -> ());
      List.iter (fun size -> check_csr_matches_generic (build size)) sizes)
    csr_sizes;
  check_csr_matches_generic (Topology.Torus.graph ~d:3 ~m:3);
  check_csr_matches_generic (Topology.Small_world.graph stream ~m:5 ~r:2.0)

(* The rows live exactly as long as their graph: nothing else may hold
   a dropped graph's rows. Filled in a function of its own so that no
   stack slot of this frame keeps the graph. *)
let test_csr_freed_with_graph () =
  let weak = Weak.create 1 in
  let fill () =
    let g = Topology.Mesh.graph ~d:2 ~m:16 in
    Weak.set weak 0 (Some (Topology.Csr.of_graph g))
  in
  (Sys.opaque_identity fill) ();
  Gc.full_major ();
  Alcotest.(check bool) "rows collected" false (Weak.check weak 0)

let test_graph_helpers () =
  let g = Topology.Hypercube.graph 4 in
  Alcotest.(check int) "edge_count" 32 (G.edge_count g);
  Alcotest.(check int) "edge_list" 32 (List.length (G.edge_list g));
  Alcotest.(check (option int)) "bfs self" (Some 0) (G.bfs_distance g 3 3);
  Alcotest.(check (option int)) "bfs antipode" (Some 4) (G.bfs_distance g 0 15);
  Alcotest.(check bool) "is_edge" true (G.is_edge g 0 1);
  Alcotest.(check bool) "is_edge false" false (G.is_edge g 0 3)

(* ------------------------------------------------------------------ *)

let () =
  let stream = Prng.Stream.create 99L in
  Alcotest.run "topology"
    [
      ("hypercube generic", generic_battery "H_6" (Topology.Hypercube.graph 6) ~metric_samples:60);
      ("mesh generic", generic_battery "M^2(7)" (Topology.Mesh.graph ~d:2 ~m:7) ~metric_samples:60);
      ( "mesh3 generic",
        generic_battery "M^3(4)" (Topology.Mesh.graph ~d:3 ~m:4) ~metric_samples:40 );
      ("torus generic", generic_battery "T^2(5)" (Topology.Torus.graph ~d:2 ~m:5) ~metric_samples:40);
      ( "binary tree generic",
        generic_battery "B(4)" (Topology.Binary_tree.graph 4) ~metric_samples:0 );
      ( "double tree generic",
        generic_battery "TT(4)" (Topology.Double_tree.graph 4) ~metric_samples:0 );
      ( "complete generic",
        generic_battery "K(12)" (Topology.Complete.graph 12) ~metric_samples:40 );
      ("theta generic", generic_battery "Theta(9)" (Topology.Theta.graph 9) ~metric_samples:30);
      ( "cycle+matching generic",
        generic_battery "CM(30)"
          (Topology.Cycle_matching.graph (Prng.Stream.split stream 1) 30)
          ~metric_samples:0 );
      ( "de bruijn generic",
        generic_battery "DB(6)" (Topology.De_bruijn.graph 6) ~metric_samples:0 );
      ( "shuffle exchange generic",
        generic_battery "SE(6)" (Topology.Shuffle_exchange.graph 6) ~metric_samples:0 );
      ( "registry",
        [
          Alcotest.test_case "neighbors freshness contract" `Quick
            test_registry_neighbors_fresh;
        ] );
      ( "butterfly generic",
        generic_battery "BF(4)" (Topology.Butterfly.graph 4) ~metric_samples:0 );
      ( "hypercube",
        [
          Alcotest.test_case "counts" `Quick test_hypercube_counts;
          Alcotest.test_case "helpers" `Quick test_hypercube_helpers;
          Alcotest.test_case "fixed path" `Quick test_hypercube_fixed_path;
          Alcotest.test_case "bounds" `Quick test_hypercube_bounds;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "counts" `Quick test_mesh_counts;
          Alcotest.test_case "coords roundtrip" `Quick test_mesh_coords_roundtrip;
          Alcotest.test_case "corner degree" `Quick test_mesh_corner_degree;
          Alcotest.test_case "fixed path" `Quick test_mesh_fixed_path;
          Alcotest.test_case "l1 distance from coordinates" `Quick
            test_l1_distance_matches_coords;
        ] );
      ( "torus",
        [
          Alcotest.test_case "regular degree" `Quick test_torus_degree_regular;
          Alcotest.test_case "wraparound distance" `Quick test_torus_wraparound_distance;
          Alcotest.test_case "fixed path wraps" `Quick test_torus_fixed_path_wraps;
          Alcotest.test_case "edge ids at m = 3" `Quick test_torus_edge_ids_m3;
        ] );
      ( "binary tree",
        [
          Alcotest.test_case "structure" `Quick test_binary_tree_structure;
          Alcotest.test_case "parent/child" `Quick test_binary_tree_parent_child;
        ] );
      ( "double tree",
        [
          Alcotest.test_case "structure" `Quick test_double_tree_structure;
          Alcotest.test_case "mirror edges" `Quick test_double_tree_mirror;
          Alcotest.test_case "root distance" `Quick test_double_tree_root_distance;
        ] );
      ( "complete & theta",
        [
          Alcotest.test_case "complete" `Quick test_complete_structure;
          Alcotest.test_case "theta" `Quick test_theta_structure;
          Alcotest.test_case "theta probability" `Quick test_theta_probability;
        ] );
      ( "expanders",
        [
          Alcotest.test_case "cycle+matching" `Quick test_cycle_matching_structure;
          Alcotest.test_case "de bruijn" `Quick test_de_bruijn_structure;
          Alcotest.test_case "shuffle exchange" `Quick test_shuffle_exchange_structure;
          Alcotest.test_case "butterfly" `Quick test_butterfly_structure;
        ] );
      ( "small world generic",
        generic_battery "SW(7)"
          (Topology.Small_world.graph (Prng.Stream.split stream 2) ~m:7 ~r:2.0)
          ~metric_samples:0 );
      ( "mincut",
        [
          Alcotest.test_case "known values" `Quick test_mincut_known_values;
          Alcotest.test_case "cut matches flow" `Quick test_mincut_cut_matches_flow;
          Alcotest.test_case "duality via percolation" `Quick
            test_mincut_duality_via_percolation;
          Alcotest.test_case "symmetric" `Quick test_mincut_symmetric;
          Alcotest.test_case "bounded by degree" `Quick test_mincut_bounded_by_degree;
          Alcotest.test_case "errors" `Quick test_mincut_errors;
          QCheck_alcotest.to_alcotest ~long:false mincut_differential;
        ] );
      ( "small world",
        [
          Alcotest.test_case "contact map" `Quick test_small_world_contact_map;
          Alcotest.test_case "contains grid" `Quick test_small_world_contains_grid;
          Alcotest.test_case "contact bias" `Quick test_small_world_contact_bias;
          Alcotest.test_case "known contacts" `Quick test_small_world_known_contacts;
        ] );
      ("graph helpers", [ Alcotest.test_case "helpers" `Quick test_graph_helpers ]);
      ( "csr",
        [
          Alcotest.test_case "native fill = generic fill" `Quick test_csr_matches_generic;
          Alcotest.test_case "freed with graph" `Quick test_csr_freed_with_graph;
        ] );
    ]
