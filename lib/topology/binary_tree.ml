let root = 0

let depth_of v =
  let rec loop heap acc = if heap <= 1 then acc else loop (heap lsr 1) (acc + 1) in
  loop (v + 1) 0

let parent v = if v = 0 then None else Some (((v + 1) lsr 1) - 1)
let is_leaf ~n v = depth_of v = n

let children ~n v =
  if is_leaf ~n v then None
  else begin
    let heap = v + 1 in
    Some ((2 * heap) - 1, 2 * heap)
  end

let leaves ~n = Array.init (1 lsl n) (fun i -> (1 lsl n) - 1 + i)

let graph n =
  if n < 1 || n > 28 then invalid_arg "Binary_tree.graph: need 1 <= n <= 28";
  let size = (1 lsl (n + 1)) - 1 in
  let neighbors v =
    let parent_list = match parent v with None -> [] | Some p -> [ p ] in
    let child_list =
      match children ~n v with None -> [] | Some (l, r) -> [ l; r ]
    in
    Array.of_list (parent_list @ child_list)
  in
  let degree v =
    (match parent v with None -> 0 | Some _ -> 1)
    + (match children ~n v with None -> 0 | Some _ -> 2)
  in
  (* Edge {v, parent v} is identified by the child: id = v - 1. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= size || v >= size || u = v then
      raise (Graph.Not_an_edge (u, v));
    let child = if u < v then v else u and candidate_parent = if u < v then u else v in
    match parent child with
    | Some p when p = candidate_parent -> child - 1
    | Some _ | None -> raise (Graph.Not_an_edge (u, v))
  in
  {
    Graph.name = Printf.sprintf "binary_tree(depth=%d)" n;
    vertex_count = size;
    degree;
    neighbors;
    edge_id;
    edge_id_bound = size - 1;
    distance = None;
    csr = Graph.csr_cell ();
  }
