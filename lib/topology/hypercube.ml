let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  if x < 0 then invalid_arg "Hypercube.popcount: negative" else loop x 0

let hamming x y = popcount (x lxor y)
let flip x i = x lxor (1 lsl i)
let antipode ~n x = x lxor ((1 lsl n) - 1)

let fixed_path_in_order bits u v =
  let correct x acc i =
    if (x lxor v) land (1 lsl i) <> 0 then begin
      let x' = flip x i in
      (x', x' :: acc)
    end
    else (x, acc)
  in
  let _, acc = List.fold_left (fun (x, acc) i -> correct x acc i) (u, [ u ]) bits in
  List.rev acc

let fixed_path ~n u v = fixed_path_in_order (List.init n (fun i -> i)) u v
let fixed_path_desc ~n u v = fixed_path_in_order (List.init n (fun i -> n - 1 - i)) u v

(* Row [x] is [neighbors x] (bit 0 first) with the ids [edge_id] gives. *)
let csr ~n ~size () =
  let xadj = Array.init (size + 1) (fun x -> x * n) in
  let targets = Array.make (size * n) 0 and edge_ids = Array.make (size * n) 0 in
  for x = 0 to size - 1 do
    let base = x * n in
    for i = 0 to n - 1 do
      let bit = 1 lsl i in
      targets.(base + i) <- x lxor bit;
      edge_ids.(base + i) <- ((x land lnot bit) * n) + i
    done
  done;
  { Csr.xadj; targets; edge_ids }

let graph n =
  if n < 1 || n > 30 then invalid_arg "Hypercube.graph: need 1 <= n <= 30";
  let size = 1 lsl n in
  let neighbors x = Array.init n (fun i -> flip x i) in
  (* The canonical id of the edge along bit [i] belongs to the endpoint
     with that bit cleared: id = (x with bit i cleared) * n + i. *)
  let edge_id x y =
    let diff = x lxor y in
    if diff = 0 || diff land (diff - 1) <> 0 || x lor y >= size || x < 0 || y < 0 then
      raise (Graph.Not_an_edge (x, y));
    let bit =
      let rec find i = if diff land (1 lsl i) <> 0 then i else find (i + 1) in
      find 0
    in
    ((x land lnot diff) * n) + bit
  in
  {
    Graph.name = Printf.sprintf "hypercube(n=%d)" n;
    vertex_count = size;
    degree = (fun _ -> n);
    neighbors;
    edge_id;
    edge_id_bound = size * n;
    distance = Some hamming;
    csr = Graph.csr_cell ~fill:(csr ~n ~size) ();
  }

let dimension g =
  (* vertex_count = 2^n *)
  let rec log2 acc size = if size <= 1 then acc else log2 (acc + 1) (size lsr 1) in
  log2 0 g.Graph.vertex_count
