let router ~backbone =
  if Array.length backbone = 0 then invalid_arg "Path_follow.router: empty backbone";
  let index_table = Hashtbl.create (Array.length backbone) in
  Array.iteri (fun i v -> Hashtbl.replace index_table v i) backbone;
  let index_of v = Hashtbl.find_opt index_table v in
  let route oracle ~target =
    match Router.trivial_outcome oracle ~target with
    | Some outcome -> outcome
    | None ->
        let last = Array.length backbone - 1 in
        let rec follow current =
          if current = last then begin
            match Percolation.Oracle.path_to oracle target with
            | Some path -> Router.found_outcome oracle (Path.simplify path)
            | None -> assert false
          end
          else begin
            (* One stage: search outward from the furthest backbone
               vertex reached until a later backbone vertex turns up. *)
            let later v =
              match index_of v with Some j -> j > current | None -> false
            in
            match
              Local_bfs.search oracle ~start:backbone.(current) ~stop:later ()
            with
            | Some v -> follow (Option.get (index_of v))
            | None ->
                Outcome.No_path
                  { probes = Percolation.Oracle.distinct_probes oracle }
          end
        in
        follow 0
  in
  { Router.name = "path-follow"; policy = Percolation.Oracle.Local; route }

let hypercube ~n ~source ~target =
  let backbone = Array.of_list (Topology.Hypercube.fixed_path ~n source target) in
  { (router ~backbone) with Router.name = "segment-bfs(hypercube)" }

let mesh ~d ~m ~source ~target =
  let backbone = Array.of_list (Topology.Mesh.fixed_path ~d ~m source target) in
  { (router ~backbone) with Router.name = "path-follow(mesh)" }

let torus ~d ~m ~source ~target =
  let backbone = Array.of_list (Topology.Torus.fixed_path ~d ~m source target) in
  { (router ~backbone) with Router.name = "path-follow(torus)" }
