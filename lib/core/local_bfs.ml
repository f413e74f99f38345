let search oracle ?(order = fun _ neighbors -> neighbors) ~start ~stop () =
  let g = Percolation.World.graph (Percolation.Oracle.world oracle) in
  let enqueued = Hashtbl.create 256 in
  Hashtbl.replace enqueued start ();
  let queue = Queue.create () in
  Queue.push start queue;
  let found = ref None in
  (try
     while not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       Array.iter
         (fun v ->
           if Percolation.Oracle.probe oracle u v && not (Hashtbl.mem enqueued v)
           then begin
             if stop v then begin
               found := Some v;
               raise Exit
             end;
             Hashtbl.replace enqueued v ();
             Queue.push v queue
           end)
         (order u (g.Topology.Graph.neighbors u))
     done
   with Exit -> ());
  !found

let route_with_order ?order oracle ~target =
  match Router.trivial_outcome oracle ~target with
  | Some outcome -> outcome
  | None -> (
      let start = Percolation.Oracle.source oracle in
      match search oracle ?order ~start ~stop:(fun v -> v = target) () with
      | Some _ -> (
          match Percolation.Oracle.path_to oracle target with
          | Some path -> Router.found_outcome oracle path
          | None -> assert false (* target was just reached *))
      | None ->
          Outcome.No_path { probes = Percolation.Oracle.distinct_probes oracle })

let router =
  {
    Router.name = "local-bfs";
    policy = Percolation.Oracle.Local;
    route = route_with_order ?order:None;
  }

let router_randomized stream =
  let shuffle _ neighbors =
    Prng.Stream.shuffle_in_place stream neighbors;
    neighbors
  in
  {
    Router.name = "local-bfs-randomized";
    policy = Percolation.Oracle.Local;
    route = route_with_order ~order:shuffle;
  }
