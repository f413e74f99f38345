let vertex ~n ~level ~row = (level lsl n) lor row
let level_of ~n v = v lsr n
let row_of ~n v = v land ((1 lsl n) - 1)

let graph n =
  if n < 3 || n > 24 then invalid_arg "Butterfly.graph: need 3 <= n <= 24";
  let rows = 1 lsl n in
  let size = n * rows in
  let neighbors v =
    let level = level_of ~n v and row = row_of ~n v in
    let up = (level + 1) mod n and down = (level + n - 1) mod n in
    [|
      vertex ~n ~level:up ~row;
      vertex ~n ~level:up ~row:(row lxor (1 lsl level));
      vertex ~n ~level:down ~row;
      vertex ~n ~level:down ~row:(row lxor (1 lsl down));
    |]
  in
  (* Each edge has a unique source (the lower level endpoint, mod-n-wise)
     and a type bit: id = 2·source + type. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= size || v >= size || u = v then
      raise (Graph.Not_an_edge (u, v));
    let lu = level_of ~n u and lv = level_of ~n v in
    let source, target =
      if (lu + 1) mod n = lv then (u, v)
      else if (lv + 1) mod n = lu then (v, u)
      else raise (Graph.Not_an_edge (u, v))
    in
    let source_level = level_of ~n source in
    let source_row = row_of ~n source and target_row = row_of ~n target in
    if source_row = target_row then 2 * source
    else if source_row lxor target_row = 1 lsl source_level then (2 * source) + 1
    else raise (Graph.Not_an_edge (u, v))
  in
  {
    Graph.name = Printf.sprintf "butterfly(n=%d)" n;
    vertex_count = size;
    degree = (fun _ -> 4);
    neighbors;
    edge_id;
    edge_id_bound = 2 * size;
    distance = None;
    csr = Graph.csr_cell ();
  }
