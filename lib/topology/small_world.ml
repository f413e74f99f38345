let l1 ~m u v = Mesh.l1_distance ~d:2 ~m u v

(* Draw one long-range contact for [u]: probability of [v] proportional
   to d(u,v)^-r. [weights.(d)] holds d^-r for every grid distance d,
   with 0 at d = 0 so that [u] never draws itself. Two passes over all
   vertices in index order (v = y·m + x), tracking grid coordinates as
   they go: one sums the weights, the other scans the running sum up to
   the drawn target. Table entries are the same [**] values, summed in
   the same order, so the draw does not depend on the table. *)
let draw_contact stream ~m ~weights u =
  let size = m * m in
  let ux = u mod m and uy = u / m in
  let total = ref 0.0 in
  for y = 0 to m - 1 do
    let dy = abs (y - uy) in
    for x = 0 to m - 1 do
      total := !total +. Array.unsafe_get weights (dy + abs (x - ux))
    done
  done;
  let target = Prng.Stream.float_unit stream *. !total in
  (* The first vertex other than [u] where the running sum reaches the
     target; the last vertex if none before it does. *)
  let contact = ref (-1) in
  let v = ref 0 and x = ref 0 and y = ref 0 and acc = ref 0.0 in
  while !contact < 0 do
    if !v >= size - 1 then contact := size - 1
    else begin
      acc := !acc +. Array.unsafe_get weights (abs (!x - ux) + abs (!y - uy));
      if !acc >= target && !v <> u then contact := !v
      else begin
        incr v;
        if !x = m - 1 then begin
          x := 0;
          incr y
        end
        else incr x
      end
    end
  done;
  (* Only the last vertex can fall back onto itself. *)
  if !contact = u then (u + 1) mod size else !contact

let create stream ~m ~r =
  if m < 3 then invalid_arg "Small_world.create: need m >= 3";
  if r < 0.0 then invalid_arg "Small_world.create: need r >= 0";
  let base = Mesh.graph ~d:2 ~m in
  let size = base.Graph.vertex_count in
  let weights =
    Array.init ((2 * m) - 1) (fun d -> if d = 0 then 0.0 else float_of_int d ** -.r)
  in
  let contact = Array.init size (fun u -> draw_contact stream ~m ~weights u) in
  (* Reverse index: who points at v. *)
  let reverse = Array.make size [] in
  Array.iteri (fun u c -> reverse.(c) <- u :: reverse.(c)) contact;
  let is_long u v = contact.(u) = v || contact.(v) = u in
  (* Adjacency is fixed at construction, so sort and deduplicate each
     row once here instead of on every [neighbors] query (the per-call
     sort used to dominate greedy routing on this family). [neighbors]
     returns a copy to honour the freshness contract of {!Graph.t}. *)
  let adjacency =
    Array.init size (fun u ->
        let grid = Array.to_list (base.Graph.neighbors u) in
        let long = contact.(u) :: reverse.(u) in
        List.sort_uniq compare (grid @ long)
        |> List.filter (fun v -> v <> u)
        |> Array.of_list)
  in
  let neighbors u = Array.copy adjacency.(u) in
  (* Grid edges keep the mesh ids [0, 2·size); the long link generated by
     node g gets id 2·size + g. When both endpoints generated the same
     undirected pair, the smaller generator is canonical; when a long
     link coincides with a grid edge the grid id wins (the graph stays
     simple). *)
  let edge_id u v =
    match base.Graph.edge_id u v with
    | id -> id
    | exception Graph.Not_an_edge _ ->
        if u < 0 || v < 0 || u >= size || v >= size || u = v || not (is_long u v)
        then raise (Graph.Not_an_edge (u, v))
        else begin
          let generator =
            if contact.(u) = v && contact.(v) = u then (if u < v then u else v)
            else if contact.(u) = v then u
            else v
          in
          (2 * size) + generator
        end
  in
  let graph =
    {
      Graph.name = Printf.sprintf "small_world(m=%d,r=%.1f)" m r;
      vertex_count = size;
      degree = (fun u -> Array.length adjacency.(u));
      neighbors;
      edge_id;
      edge_id_bound = 3 * size;
      distance = Some (l1 ~m);
      csr = Graph.csr_cell ();
    }
  in
  (graph, fun u -> contact.(u))

let graph stream ~m ~r = fst (create stream ~m ~r)
