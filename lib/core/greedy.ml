(* The order a vertex's neighbours are probed in: indices [0, deg) of
   its neighbour array sorted by their distance to the target.
   [Array.sort] is a heapsort whose moves depend only on comparison
   outcomes, so sorting the indices by precomputed distances permutes
   them exactly as sorting the neighbours by [metric] would, while
   evaluating each distance once instead of twice per comparison. *)
let by_distance dist =
  let perm = Array.init (Array.length dist) Fun.id in
  Array.sort (fun a b -> Int.compare dist.(a) dist.(b)) perm;
  perm

let route oracle ~target =
  match Router.trivial_outcome oracle ~target with
  | Some outcome -> outcome
  | None ->
      let world = Percolation.Oracle.world oracle in
      let g = Percolation.World.graph world in
      let metric =
        match g.Topology.Graph.distance with
        | Some metric -> metric
        | None -> invalid_arg "Greedy.router: topology has no metric"
      in
      let source = Percolation.Oracle.source oracle in
      let visited = Hashtbl.create 256 in
      Hashtbl.replace visited source ();
      let stack = Stack.create () in
      Stack.push source stack;
      let result = ref None in
      (try
         while not (Stack.is_empty stack) do
           let u = Stack.pop stack in
           let around = g.Topology.Graph.neighbors u in
           let order = by_distance (Array.map (fun v -> metric v target) around) in
           (* Push in reverse preference order so the closest neighbour is
              explored first. *)
           for i = Array.length around - 1 downto 0 do
             let v = around.(order.(i)) in
             if (not (Hashtbl.mem visited v)) && Percolation.Oracle.probe oracle u v
             then begin
               if v = target then begin
                 result := Percolation.Oracle.path_to oracle target;
                 raise Exit
               end;
               Hashtbl.replace visited v ();
               Stack.push v stack
             end
           done
         done
       with Exit -> ());
      (match !result with
      | Some path -> Router.found_outcome oracle (Path.simplify path)
      | None -> Outcome.No_path { probes = Percolation.Oracle.distinct_probes oracle })

let router = { Router.name = "greedy-dfs"; policy = Percolation.Oracle.Local; route }
