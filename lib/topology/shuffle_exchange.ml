let rotate_left ~n x =
  let mask = (1 lsl n) - 1 in
  ((x lsl 1) land mask) lor (x lsr (n - 1))

let rotate_right ~n x =
  let low = x land 1 in
  (x lsr 1) lor (low lsl (n - 1))

let graph n =
  if n < 2 || n > 28 then invalid_arg "Shuffle_exchange.graph: need 2 <= n <= 28";
  let size = 1 lsl n in
  let neighbors x =
    [ x lxor 1; rotate_left ~n x; rotate_right ~n x ]
    |> List.filter (fun y -> y <> x)
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let degree x = Array.length (neighbors x) in
  (* Exchange edge {x, x xor 1}: id = 2·(x lsr 1) (even ids).
     Shuffle edge {y, rotate_left y}: id = 2·source + 1 (odd ids), where
     source is y, or min(y, rotate_left y) when the rotation orbit has
     period two and both endpoints generate the edge. Exchange
     representation wins when an edge is both. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= size || v >= size || u = v then
      raise (Graph.Not_an_edge (u, v));
    if u lxor v = 1 then 2 * (u lsr 1)
    else begin
      (* Smallest generating source, checked in ascending order —
         allocation-free (no list building or polymorphic sort) since
         this sits on every oracle probe's hot path. *)
      let lo = if u < v then u else v and hi = if u < v then v else u in
      if rotate_left ~n lo = hi then (2 * lo) + 1
      else if rotate_left ~n hi = lo then (2 * hi) + 1
      else raise (Graph.Not_an_edge (u, v))
    end
  in
  {
    Graph.name = Printf.sprintf "shuffle_exchange(n=%d)" n;
    vertex_count = size;
    degree;
    neighbors;
    edge_id;
    edge_id_bound = 2 * size;
    distance = None;
    csr = Graph.csr_cell ();
  }
