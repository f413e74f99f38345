let endpoint_u = 0
let endpoint_v = 1
let middle i = i + 2

let connection_probability ~d ~p = 1.0 -. ((1.0 -. (p *. p)) ** float_of_int d)

let graph d =
  if d < 1 then invalid_arg "Theta.graph: need d >= 1";
  let size = d + 2 in
  let neighbors v =
    if v = endpoint_u || v = endpoint_v then Array.init d middle
    else [| endpoint_u; endpoint_v |]
  in
  let degree v = if v = endpoint_u || v = endpoint_v then d else 2 in
  (* Path i contributes edges (u, middle i) with id 2i and (v, middle i)
     with id 2i + 1. *)
  let edge_id a b =
    if a < 0 || b < 0 || a >= size || b >= size then raise (Graph.Not_an_edge (a, b));
    let lo = if a < b then a else b and hi = if a < b then b else a in
    if hi < 2 || lo > 1 then raise (Graph.Not_an_edge (a, b))
    else begin
      let path = hi - 2 in
      if lo = endpoint_u then 2 * path else (2 * path) + 1
    end
  in
  {
    Graph.name = Printf.sprintf "theta(d=%d)" d;
    vertex_count = size;
    degree;
    neighbors;
    edge_id;
    edge_id_bound = 2 * d;
    distance =
      Some
        (fun a b ->
          if a = b then 0
          else if (a < 2 && b < 2) || (a >= 2 && b >= 2) then 2
          else 1);
    csr = Graph.csr_cell ();
  }
