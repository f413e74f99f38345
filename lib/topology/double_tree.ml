type role = Internal1 | Leaf | Internal2

(* Layout boundaries for depth n:
   internal-1 ids: [0, 2^n - 1)           (heap index = id + 1, in [1, 2^n))
   leaf ids:       [2^n - 1, 2^(n+1) - 1) (leaf offset = id - (2^n - 1))
   internal-2 ids: [2^(n+1) - 1, 3·2^n - 2) (heap index = id - (2^(n+1) - 1) + 1)

   Within either tree we work with "extended heap indices" in [1, 2^(n+1)):
   indices [1, 2^n) are internal, [2^n, 2^(n+1)) are the leaves. *)

let leaf_base ~n = (1 lsl n) - 1
let internal2_base ~n = (1 lsl (n + 1)) - 1
let vertex_count ~n = (3 * (1 lsl n)) - 2

let root1 = 0
let root2 ~n = internal2_base ~n

let role_of ~n v =
  if v < leaf_base ~n then Internal1
  else if v < internal2_base ~n then Leaf
  else Internal2

let leaf ~n j = leaf_base ~n + j

(* Extended heap index of vertex [v] within tree [t] (0 or 1). Leaves
   belong to both trees. Raises Not_found if v is internal to the other
   tree. *)
let heap_in_tree ~n ~tree v =
  match role_of ~n v with
  | Internal1 -> if tree = 0 then v + 1 else raise Not_found
  | Internal2 -> if tree = 1 then v - internal2_base ~n + 1 else raise Not_found
  | Leaf -> (1 lsl n) + (v - leaf_base ~n)

(* Vertex id of extended heap index [h] in tree [t]. *)
let vertex_of_heap ~n ~tree h =
  if h >= 1 lsl n then leaf_base ~n + (h - (1 lsl n))
  else if tree = 0 then h - 1
  else internal2_base ~n + h - 1

let depth_of ~n v =
  match role_of ~n v with
  | Leaf -> n
  | Internal1 -> Binary_tree.depth_of v
  | Internal2 -> Binary_tree.depth_of (v - internal2_base ~n)

(* An edge is (tree, child-heap-index ch) with ch in [2, 2^(n+1)):
   it joins heap ch to heap ch/2 within that tree. *)
let decompose_edge ~n u v =
  let size = vertex_count ~n in
  if u < 0 || v < 0 || u >= size || v >= size || u = v then
    raise (Graph.Not_an_edge (u, v));
  let try_tree tree =
    match (heap_in_tree ~n ~tree u, heap_in_tree ~n ~tree v) with
    | hu, hv ->
        let child = if hu < hv then hv else hu
        and parent_heap = if hu < hv then hu else hv in
        if child lsr 1 = parent_heap then Some (tree, child) else None
    | exception Not_found -> None
  in
  match try_tree 0 with
  | Some decomposition -> decomposition
  | None -> (
      match try_tree 1 with
      | Some decomposition -> decomposition
      | None -> raise (Graph.Not_an_edge (u, v)))

let mirror_edge ~n u v =
  let tree, child = decompose_edge ~n u v in
  let other = 1 - tree in
  (vertex_of_heap ~n ~tree:other (child lsr 1), vertex_of_heap ~n ~tree:other child)

let graph n =
  if n < 1 || n > 27 then invalid_arg "Double_tree.graph: need 1 <= n <= 27";
  let size = vertex_count ~n in
  let neighbors v =
    match role_of ~n v with
    | Leaf ->
        let h = heap_in_tree ~n ~tree:0 v in
        [| vertex_of_heap ~n ~tree:0 (h lsr 1); vertex_of_heap ~n ~tree:1 (h lsr 1) |]
    | Internal1 | Internal2 ->
        let tree = if role_of ~n v = Internal1 then 0 else 1 in
        let h = heap_in_tree ~n ~tree v in
        let down = [ vertex_of_heap ~n ~tree (2 * h); vertex_of_heap ~n ~tree ((2 * h) + 1) ] in
        let up = if h = 1 then [] else [ vertex_of_heap ~n ~tree (h lsr 1) ] in
        Array.of_list (up @ down)
  in
  let degree v =
    match role_of ~n v with
    | Leaf -> 2
    | Internal1 | Internal2 ->
        let tree = if role_of ~n v = Internal1 then 0 else 1 in
        if heap_in_tree ~n ~tree v = 1 then 2 else 3
  in
  let edge_id u v =
    let tree, child = decompose_edge ~n u v in
    ((child - 2) * 2) + tree
  in
  {
    Graph.name = Printf.sprintf "double_tree(depth=%d)" n;
    vertex_count = size;
    degree;
    neighbors;
    edge_id;
    edge_id_bound = ((1 lsl (n + 1)) - 2) * 2;
    distance = None;
    csr = Graph.csr_cell ();
  }
