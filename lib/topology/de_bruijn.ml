let shift ~n x b = ((x lsl 1) land ((1 lsl n) - 1)) lor b

let graph n =
  if n < 2 || n > 28 then invalid_arg "De_bruijn.graph: need 2 <= n <= 28";
  let size = 1 lsl n in
  let neighbors x =
    let candidates =
      [ shift ~n x 0; shift ~n x 1; x lsr 1; (x lsr 1) lor (1 lsl (n - 1)) ]
    in
    candidates
    |> List.filter (fun y -> y <> x)
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let degree x = Array.length (neighbors x) in
  (* Every edge {x, y} has y an out-shift of x for at least one of its two
     orientations; the canonical id is taken from the representation
     (source, bit) with the smallest source (then smallest bit):
     id = 2·source + bit. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= size || v >= size || u = v then
      raise (Graph.Not_an_edge (u, v));
    (* Smallest matching (source, bit) representation, checked in
       ascending id order — allocation-free, as this sits on every
       oracle probe's hot path. *)
    let id =
      if u <= v then
        if shift ~n u 0 = v then 2 * u
        else if shift ~n u 1 = v then (2 * u) + 1
        else if shift ~n v 0 = u then 2 * v
        else if shift ~n v 1 = u then (2 * v) + 1
        else -1
      else if shift ~n v 0 = u then 2 * v
      else if shift ~n v 1 = u then (2 * v) + 1
      else if shift ~n u 0 = v then 2 * u
      else if shift ~n u 1 = v then (2 * u) + 1
      else -1
    in
    if id < 0 then raise (Graph.Not_an_edge (u, v)) else id
  in
  {
    Graph.name = Printf.sprintf "de_bruijn(n=%d)" n;
    vertex_count = size;
    degree;
    neighbors;
    edge_id;
    edge_id_bound = 2 * size;
    distance = None;
    csr = Graph.csr_cell ();
  }
