let axis_delta ~m a b =
  (* Signed step (+1/-1 direction choice) and length of the shorter way
     around the cycle from a to b. *)
  let forward = (b - a + m) mod m in
  let backward = m - forward in
  if forward <= backward then (1, forward) else (-1, backward)

(* Per axis, the shorter way around: [axis_delta]'s length, with the
   coordinates read digit by digit as in [Mesh.l1_distance], so a call
   allocates nothing. *)
let l1_distance ~d ~m u v =
  let total = ref 0 and u = ref u and v = ref v in
  for _ = 1 to d do
    let forward = ((!v mod m) - (!u mod m) + m) mod m in
    total := !total + if forward <= m - forward then forward else m - forward;
    u := !u / m;
    v := !v / m
  done;
  !total

let fixed_path ~d ~m u v =
  let cu = Mesh.coords ~d ~m u and cv = Mesh.coords ~d ~m v in
  let current = Array.copy cu in
  let acc = ref [ u ] in
  for axis = 0 to d - 1 do
    let step, len = axis_delta ~m cu.(axis) cv.(axis) in
    for _ = 1 to len do
      current.(axis) <- (current.(axis) + step + m) mod m;
      acc := Mesh.index ~m current :: !acc
    done
  done;
  List.rev !acc

(* Row [v] is [neighbors v] — per axis, ascending, the +1 neighbour
   then the -1 one, wrapping — with the ids [edge_id] gives. *)
let csr ~d ~m ~size ~strides () =
  let degree = 2 * d in
  let xadj = Array.init (size + 1) (fun v -> v * degree) in
  let targets = Array.make (size * degree) 0 and edge_ids = Array.make (size * degree) 0 in
  let c = Array.make d 0 in
  for v = 0 to size - 1 do
    for axis = 0 to d - 1 do
      let stride = strides.(axis) and slot = (v * degree) + (2 * axis) in
      let up = if c.(axis) = m - 1 then v - ((m - 1) * stride) else v + stride in
      let down = if c.(axis) = 0 then v + ((m - 1) * stride) else v - stride in
      targets.(slot) <- up;
      edge_ids.(slot) <- (v * d) + axis;
      targets.(slot + 1) <- down;
      edge_ids.(slot + 1) <- (down * d) + axis
    done;
    Mesh.next_coords ~m c
  done;
  { Csr.xadj; targets; edge_ids }

let graph ~d ~m =
  if d < 1 then invalid_arg "Torus.graph: d must be >= 1";
  if m < 3 then invalid_arg "Torus.graph: m must be >= 3 (simple graph)";
  let mesh = Mesh.graph ~d ~m in
  let size = mesh.Graph.vertex_count in
  let strides =
    Array.init d (fun axis ->
        let rec loop i acc = if i = axis then acc else loop (i + 1) (acc * m) in
        loop 0 1)
  in
  let neighbors v =
    let c = Mesh.coords ~d ~m v in
    Array.init (2 * d) (fun slot ->
        let axis = slot / 2 in
        let step = if slot land 1 = 0 then 1 else m - 1 in
        let shifted = (c.(axis) + step) mod m in
        v + ((shifted - c.(axis)) * strides.(axis)))
  in
  (* Edge along [axis] from coordinate k to k+1 (mod m): canonical source
     is the endpoint with coordinate k; id = source*d + axis. Its
     endpoints lie one stride apart (source below) or, across the
     wrap, m-1 strides apart (source above); for m >= 3 no gap is both,
     so the gap names the axis and the side. The lower endpoint's
     coordinate on that axis then rejects gaps that carry into the next
     axis. Refs and a loop, not a local recursive function, so a call
     allocates nothing: [edge_id] runs on every probe. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= size || v >= size then raise (Graph.Not_an_edge (u, v));
    let lo = if u < v then u else v and hi = if u < v then v else u in
    let diff = hi - lo in
    let axis = ref 0 in
    while !axis < d && diff <> strides.(!axis) && diff <> (m - 1) * strides.(!axis) do
      incr axis
    done;
    let axis = !axis in
    if axis = d then raise (Graph.Not_an_edge (u, v));
    let c = lo / strides.(axis) mod m in
    if diff = strides.(axis) then begin
      if c = m - 1 then raise (Graph.Not_an_edge (u, v));
      (lo * d) + axis
    end
    else begin
      if c <> 0 then raise (Graph.Not_an_edge (u, v));
      (hi * d) + axis
    end
  in
  {
    Graph.name = Printf.sprintf "torus(d=%d,m=%d)" d m;
    vertex_count = size;
    degree = (fun _ -> 2 * d);
    neighbors;
    edge_id;
    edge_id_bound = size * d;
    distance = Some (l1_distance ~d ~m);
    csr = Graph.csr_cell ~fill:(csr ~d ~m ~size ~strides) ();
  }
