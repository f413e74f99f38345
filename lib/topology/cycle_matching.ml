(* Build the matching as an involution without fixed points: shuffle the
   vertices and pair consecutive entries. *)
let random_matching stream n =
  let order = Array.init n (fun i -> i) in
  Prng.Stream.shuffle_in_place stream order;
  let partner = Array.make n (-1) in
  let i = ref 0 in
  while !i < n do
    partner.(order.(!i)) <- order.(!i + 1);
    partner.(order.(!i + 1)) <- order.(!i);
    i := !i + 2
  done;
  partner

let create stream n =
  if n < 4 || n land 1 = 1 then
    invalid_arg "Cycle_matching.graph: need even n >= 4";
  let matching = random_matching stream n in
  let cycle_next v = (v + 1) mod n in
  let cycle_prev v = (v + n - 1) mod n in
  let neighbors v =
    let ring = [ cycle_prev v; cycle_next v ] in
    let partner = matching.(v) in
    if List.mem partner ring then Array.of_list ring
    else Array.of_list (ring @ [ partner ])
  in
  let degree v = Array.length (neighbors v) in
  (* Cycle edge {v, v+1}: id = v. Matching chord {a, b}: id = n + min a b.
     When the matching pairs cycle-adjacent vertices the chord would be a
     parallel edge; we drop it (the graph stays simple), matching the
     convention of Bollobás–Chung. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= n || v >= n || u = v then raise (Graph.Not_an_edge (u, v));
    if cycle_next u = v then u
    else if cycle_next v = u then v
    else if matching.(u) = v then n + (if u < v then u else v)
    else raise (Graph.Not_an_edge (u, v))
  in
  ( {
      Graph.name = Printf.sprintf "cycle_matching(n=%d)" n;
      vertex_count = n;
      degree;
      neighbors;
      edge_id;
      edge_id_bound = 2 * n;
      distance = None;
      csr = Graph.csr_cell ();
    },
    fun v -> matching.(v) )

let graph stream n = fst (create stream n)
