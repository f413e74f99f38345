(* E13 — Lemma 8 (Antal–Pisztora): for p > p_c the chemical distance
   D(x,y) in the supercritical mesh is at most rho(p) * d(x,y) up to
   exponentially rare exceptions. Theorem 4's O(n) routing rests on
   this. We measure the stretch D/d for pairs at growing distance: it
   must stay bounded in n for each fixed p and grow as p decreases
   towards p_c. *)

let id = "E13"
let title = "Chemical-distance stretch in the supercritical mesh (Lemma 8)"

let claim =
  "For p > p_c there are rho, c2 with Pr[D(x,y) > rho d(x,y), x ~ y] < exp(-c2 a): \
   the percolation metric is a bounded distortion of L1."

let run ?(quick = false) stream =
  let ps = if quick then [ 0.70 ] else [ 0.55; 0.60; 0.70; 0.80; 0.90 ] in
  let distances = if quick then [ 10; 20 ] else [ 10; 20; 40 ] in
  let worlds = if quick then 10 else 40 in
  let d = 2 in
  let table =
    ref
      (Stats.Table.create
         ~headers:[ "p"; "n"; "mean stretch"; "max stretch"; "connected" ])
  in
  let claims = ref [] in
  let per_p_last_stretch = ref [] in
  List.iteri
    (fun p_index p ->
      let stretch_by_n = ref [] in
      List.iteri
        (fun n_index n ->
          let margin = 10 in
          let m = n + (2 * margin) in
          let graph = Topology.Mesh.graph ~d ~m in
          let row = m / 2 in
          let source = Topology.Mesh.index ~m [| margin; row |] in
          let target = Topology.Mesh.index ~m [| margin + n; row |] in
          let substream = Prng.Stream.split stream ((p_index * 100) + n_index) in
          let stretches = ref Stats.Summary.empty in
          let connected = ref 0 in
          for w = 1 to worlds do
            let seed = Prng.Coin.derive (Prng.Stream.seed substream) w in
            let world = Percolation.World.create graph ~p ~seed in
            match Percolation.Chemical.stretch world source target with
            | Some s ->
                incr connected;
                stretches := Stats.Summary.add !stretches s
            | None -> ()
          done;
          if !connected > 0 then
            stretch_by_n := Stats.Summary.mean !stretches :: !stretch_by_n;
          table :=
            Stats.Table.add_row !table
              [
                Printf.sprintf "%.2f" p;
                string_of_int n;
                (if !connected = 0 then "-"
                 else Printf.sprintf "%.2f" (Stats.Summary.mean !stretches));
                (if !connected = 0 then "-"
                 else Printf.sprintf "%.2f" (Stats.Summary.max !stretches));
                Printf.sprintf "%d/%d" !connected worlds;
              ])
        distances;
      match List.rev !stretch_by_n with
      | s_first :: _ as by_n ->
          let s_last = List.nth by_n (List.length by_n - 1) in
          per_p_last_stretch := s_last :: !per_p_last_stretch;
          claims :=
            Claim.ceiling
              ~id:(Printf.sprintf "E13/bounded-in-n[%.2f]" p)
              ~description:
                (Printf.sprintf
                   "mean stretch at the largest distance does not inflate \
                    over the smallest at p=%.2f"
                   p)
              ~max:1.3 (s_last /. s_first)
            :: Claim.ceiling
                 ~id:(Printf.sprintf "E13/stretch-ceiling[%.2f]" p)
                 ~description:
                   (Printf.sprintf
                      "mean stretch at the largest distance, p=%.2f (Lemma \
                       8's rho(p))"
                      p)
                 ~max:3.0 s_last
            :: !claims
      | [] -> ())
    ps;
  (match List.rev !per_p_last_stretch with
  | s_first :: _ :: _ as by_p ->
      let s_last = List.nth by_p (List.length by_p - 1) in
      claims :=
        Claim.decreasing ~id:"E13/rho-falls-with-p"
          ~description:
            "mean stretch at the largest distance falls from the smallest to \
             the largest p (rho(p) -> 1)"
          [ s_first; s_last ]
        :: !claims
  | _ -> ());
  let notes =
    [
      "Stretch = D(x,y)/d(x,y) over connected worlds, d = 2, horizontal pairs. \
       Expect rows with equal p to agree across n (boundedness) and the constant \
       to fall towards 1 as p -> 1.";
    ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes
    ~claims:(List.rev !claims)
    [ ("chemical stretch of the 2-d supercritical mesh", !table) ]
