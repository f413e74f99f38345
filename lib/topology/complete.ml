let edge_id_of_pair u v =
  (* Monomorphic comparisons: polymorphic [min]/[max] go through the
     generic compare runtime and dominate probe-heavy hot loops. *)
  let lo = if u < v then u else v and hi = if u < v then v else u in
  (hi * (hi - 1) / 2) + lo

let graph n =
  if n < 2 then invalid_arg "Complete.graph: need n >= 2";
  if n > 90000000 then invalid_arg "Complete.graph: n too large for edge ids";
  let neighbors v = Array.init (n - 1) (fun i -> if i < v then i else i + 1) in
  let edge_id u v =
    if u < 0 || v < 0 || u >= n || v >= n || u = v then raise (Graph.Not_an_edge (u, v));
    edge_id_of_pair u v
  in
  {
    Graph.name = Printf.sprintf "complete(n=%d)" n;
    vertex_count = n;
    degree = (fun _ -> n - 1);
    neighbors;
    edge_id;
    edge_id_bound = n * (n - 1) / 2;
    distance = Some (fun u v -> if u = v then 0 else 1);
    csr = Graph.csr_cell ();
  }
