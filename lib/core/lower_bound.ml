let bound ~t ~eta ~pr_path_in_s ~pr_connected =
  if pr_connected <= 0.0 then invalid_arg "Lower_bound.bound: pr_connected must be positive";
  let raw = ((t *. eta) +. pr_path_in_s) /. pr_connected in
  Float.max 0.0 (Float.min 1.0 raw)

let eta_theta ~p = p

let eta_double_tree ~p ~n = p ** float_of_int n

let eta_hypercube ~alpha ~beta ~n =
  let nf = float_of_int n in
  let l = nf ** beta in
  let p = nf ** -.alpha in
  let ratio = nf *. l *. l *. p *. p in
  if ratio >= 1.0 then
    invalid_arg "Lower_bound.eta_hypercube: series diverges (need beta < alpha - 1/2)";
  ((l *. p) ** l) /. (1.0 -. ratio)

let connected_within world ~member x y =
  if not (member x && member y) then false
  else if x = y then true
  else begin
    let n = (Percolation.World.graph world).Topology.Graph.vertex_count in
    let seen = Bytes.make n '\000' in
    let queue = Array.make n 0 in
    Bytes.set seen x '\001';
    queue.(0) <- x;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    (try
       while !head < !tail do
         let u = queue.(!head) in
         incr head;
         Percolation.World.iter_open_neighbors world u (fun v ->
             if member v && Bytes.get seen v = '\000' then begin
               Bytes.set seen v '\001';
               if v = y then begin
                 found := true;
                 raise Exit
               end;
               queue.(!tail) <- v;
               incr tail
             end)
       done
     with Exit -> ());
    !found
  end
