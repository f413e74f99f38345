let checked_power ~d ~m =
  let rec loop i acc =
    if i = d then acc
    else if acc > max_int / m then invalid_arg "Mesh.graph: m^d overflows"
    else loop (i + 1) (acc * m)
  in
  loop 0 1

let coords ~d ~m v =
  let c = Array.make d 0 in
  let rest = ref v in
  for axis = 0 to d - 1 do
    c.(axis) <- !rest mod m;
    rest := !rest / m
  done;
  c

let index ~m c =
  Array.fold_right (fun coordinate acc -> (acc * m) + coordinate) c 0

let next_coords ~m c =
  let axis = ref 0 in
  while !axis < Array.length c && c.(!axis) = m - 1 do
    c.(!axis) <- 0;
    incr axis
  done;
  if !axis < Array.length c then c.(!axis) <- c.(!axis) + 1

(* Coordinates read digit by digit ([v mod m], [v / m]), so a call
   allocates nothing: Greedy calls the metric once per neighbour. *)
let l1_distance ~d ~m u v =
  let total = ref 0 and u = ref u and v = ref v in
  for _ = 1 to d do
    total := !total + abs ((!u mod m) - (!v mod m));
    u := !u / m;
    v := !v / m
  done;
  !total

let fixed_path ~d ~m u v =
  let cu = coords ~d ~m u and cv = coords ~d ~m v in
  let current = Array.copy cu in
  let acc = ref [ u ] in
  for axis = 0 to d - 1 do
    let step = if cv.(axis) > cu.(axis) then 1 else -1 in
    while current.(axis) <> cv.(axis) do
      current.(axis) <- current.(axis) + step;
      acc := index ~m current :: !acc
    done
  done;
  List.rev !acc

(* Row [v] is [neighbors v] — per axis, ascending, the +1 neighbour
   then the -1 one, where they exist — with the ids [edge_id] gives. *)
let csr ~d ~m ~size ~strides () =
  let total = 2 * d * (size / m) * (m - 1) in
  let xadj = Array.make (size + 1) 0 in
  let targets = Array.make total 0 and edge_ids = Array.make total 0 in
  let c = Array.make d 0 and slot = ref 0 in
  for v = 0 to size - 1 do
    for axis = 0 to d - 1 do
      let stride = strides.(axis) in
      if c.(axis) < m - 1 then begin
        targets.(!slot) <- v + stride;
        edge_ids.(!slot) <- (v * d) + axis;
        incr slot
      end;
      if c.(axis) > 0 then begin
        targets.(!slot) <- v - stride;
        edge_ids.(!slot) <- ((v - stride) * d) + axis;
        incr slot
      end
    done;
    xadj.(v + 1) <- !slot;
    next_coords ~m c
  done;
  { Csr.xadj; targets; edge_ids }

let graph ~d ~m =
  if d < 1 then invalid_arg "Mesh.graph: d must be >= 1";
  if m < 2 then invalid_arg "Mesh.graph: m must be >= 2";
  let size = checked_power ~d ~m in
  let stride axis =
    let rec loop i acc = if i = axis then acc else loop (i + 1) (acc * m) in
    loop 0 1
  in
  let strides = Array.init d stride in
  let neighbors v =
    let c = coords ~d ~m v in
    let out = ref [] in
    for axis = d - 1 downto 0 do
      if c.(axis) > 0 then out := (v - strides.(axis)) :: !out;
      if c.(axis) < m - 1 then out := (v + strides.(axis)) :: !out
    done;
    Array.of_list !out
  in
  let degree v =
    let c = coords ~d ~m v in
    let deg = ref 0 in
    for axis = 0 to d - 1 do
      if c.(axis) > 0 then incr deg;
      if c.(axis) < m - 1 then incr deg
    done;
    !deg
  in
  (* Edge along [axis] between v and v + stride(axis): id = v*d + axis
     where v is the endpoint with the smaller coordinate. *)
  let edge_id u v =
    if u < 0 || v < 0 || u >= size || v >= size then raise (Graph.Not_an_edge (u, v));
    let lo = if u < v then u else v and hi = if u < v then v else u in
    let diff = hi - lo in
    let rec find_axis axis =
      if axis = d then raise (Graph.Not_an_edge (u, v))
      else if diff = strides.(axis) then axis
      else find_axis (axis + 1)
    in
    let axis = find_axis 0 in
    (* Reject wraparound-looking pairs: the lower endpoint must not be on
       the upper face of that axis boundary, i.e. coordinates must be
       consistent (lo's coordinate on [axis] is < m-1 and hi = lo + 1).
       Only that one coordinate is needed, so extract it directly rather
       than materialising the whole coordinate vector — [edge_id] is on
       every probe's hot path. *)
    if lo / strides.(axis) mod m >= m - 1 then raise (Graph.Not_an_edge (u, v));
    (lo * d) + axis
  in
  {
    Graph.name = Printf.sprintf "mesh(d=%d,m=%d)" d m;
    vertex_count = size;
    degree;
    neighbors;
    edge_id;
    edge_id_bound = size * d;
    distance = Some (l1_distance ~d ~m);
    csr = Graph.csr_cell ~fill:(csr ~d ~m ~size ~strides) ();
  }

let side g ~d =
  let rec root candidate =
    if checked_power ~d ~m:candidate >= g.Graph.vertex_count then candidate
    else root (candidate + 1)
  in
  root 2

let centre ~d ~m = index ~m (Array.make d (m / 2))
