(* E25 — fault geometry at equal budget (ROADMAP O3, after Bagchi et
   al., "The Effect of Faults on Network Expansion").

   The paper's fault model is i.i.d. edge percolation; real failures
   cluster (a cut cable, a flooded rack row). On the 2-d mesh we fix
   an exact edge budget k and compare how differently arranged fault
   sets of the same size degrade the network: uniform random, BFS
   balls around random centers, an Eden-growth infection blob, a
   decaying blast around one epicenter, and the pair-targeted min-cut
   adversary — all drawn by Scenario at the same exact budget, so
   every curve sits on one axis. Degradation is the surviving
   giant-component fraction, corner-to-corner survival, and
   conditioned greedy routing cost.

   The budget × model × trial grid runs as one Runner grid ([sweep]),
   shared with E22, so both sweeps are parallel, fault-injectable and
   checkpoint/resumable like any trial campaign. *)

let id = "E25"
let title = "Clustered vs random faults: degradation at equal budget"

let claim =
  "At equal edge budget, spatially clustered faults destroy strictly more of \
   the network than the paper's i.i.d. faults: every clustered geometry leaves \
   a smaller giant component than uniform removal of the same k edges, while \
   random removal at a 20% budget barely dents the mesh (p = 0.8 is deep in \
   the supercritical phase); the pair-targeted min-cut adversary disconnects \
   the corner pair with any budget >= its edge connectivity."

type degradation = {
  giant : Stats.Summary.t;
  survived : int;
  measured : int;
  probes : Stats.Summary.t;
}

let sweep ~census stream graph ~source ~target ~budgets ~models ~trials =
  let budgets = Array.of_list budgets and models = Array.of_list models in
  let n_models = Array.length models in
  if n_models > 10 then invalid_arg "E25.sweep: at most 10 models";
  (* E22 runs this sweep with another grid, so the name spells out
     everything the cells read. *)
  let name =
    Printf.sprintf "degradation;graph=%s;source=%d;target=%d;budgets=%s;models=%s;census=%b"
      graph.Topology.Graph.name source target
      (String.concat "," (Array.to_list (Array.map string_of_int budgets)))
      (String.concat ","
         (Array.to_list (Array.map Percolation.Scenario.model_name models)))
      census
  in
  (* One prepared sampler per model, shared by every trial and domain:
     a min-cut model's cut and the edge array are built once per sweep. *)
  let samplers = Array.map (fun model -> Percolation.Scenario.sampler graph model) models in
  (* One cell per (budget, model), one row per trial: giant fraction
     (nan without the census), pair survival as 0/1, greedy probes (nan
     unless a route was found) — all pure in (cell, trial). *)
  let compute cell trial =
    let budget_index = cell / n_models and model_index = cell mod n_models in
    let trial = trial + 1 in
    let substream =
      Prng.Stream.split stream ((budget_index * 10) + model_index)
    in
    (* Base world fault-free: isolate the fault set's effect. *)
    let base =
      Percolation.World.create graph ~p:1.0
        ~seed:(Prng.Coin.derive (Prng.Stream.seed substream) trial)
    in
    let faulted =
      Percolation.World.remove_edges base
        (samplers.(model_index)
           (Prng.Stream.split substream trial)
           ~budget:budgets.(budget_index))
    in
    let giant =
      if census then
        Percolation.Clusters.giant_fraction (Percolation.Clusters.census faulted)
      else nan
    in
    match Percolation.Reveal.connected faulted source target with
    | Percolation.Reveal.Connected _ -> (
        match Routing.Router.run Routing.Greedy.router faulted ~source ~target with
        | Routing.Outcome.Found { probes; _ } -> [| giant; 1.0; float_of_int probes |]
        | Routing.Outcome.No_path _ | Routing.Outcome.Budget_exceeded _ ->
            [| giant; 1.0; nan |])
    | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown ->
        [| giant; 0.0; nan |]
  in
  let rows =
    Runner.grid ~name stream ~cells:(Array.length budgets * n_models) ~trials compute
  in
  (* Summaries skip nan: no census, or no route found. *)
  let summary rows i =
    Array.fold_left
      (fun s row -> if Float.is_nan row.(i) then s else Stats.Summary.add s row.(i))
      Stats.Summary.empty rows
  in
  Array.init (Array.length budgets) (fun budget_index ->
      Array.init n_models (fun model_index ->
          let rows = rows.((budget_index * n_models) + model_index) in
          {
            giant = summary rows 0;
            survived = Array.fold_left (fun k row -> k + int_of_float row.(1)) 0 rows;
            measured = Array.length rows;
            probes = summary rows 2;
          }))

let run ?(quick = false) stream =
  let side = if quick then 10 else 24 in
  let trials = if quick then 5 else 20 in
  let graph = Topology.Mesh.graph ~d:2 ~m:side in
  let total_edges = Topology.Graph.edge_count graph in
  let source = 0 in
  let target = graph.Topology.Graph.vertex_count - 1 in
  let budgets =
    [ total_edges * 5 / 100; total_edges * 10 / 100; total_edges * 20 / 100 ]
  in
  let models =
    Percolation.Scenario.
      [
        ("random", Random);
        ("ball:3", Ball { centers = 3 });
        ("infection", Infection);
        ("blast:0.5", Blast { decay = 0.5 });
        ("min-cut", Min_cut { source; target });
      ]
  in
  let grid =
    sweep ~census:true stream graph ~source ~target ~budgets
      ~models:(List.map snd models) ~trials
  in
  let table =
    ref
      (Stats.Table.create
         ~headers:
           [ "deleted k"; "model"; "giant frac"; "P[corner~corner]"; "mean greedy probes" ])
  in
  let results = ref [] in
  List.iteri
    (fun budget_index budget ->
      List.iteri
        (fun model_index (name, _) ->
          let d = grid.(budget_index).(model_index) in
          if d.measured > 0 then begin
            results :=
              ( (budget_index, name),
                ( Stats.Summary.mean d.giant,
                  float_of_int d.survived /. float_of_int d.measured ) )
              :: !results;
            table :=
              Stats.Table.add_row !table
                [
                  string_of_int budget;
                  name;
                  Printf.sprintf "%.3f" (Stats.Summary.mean d.giant);
                  Printf.sprintf "%d/%d" d.survived d.measured;
                  (if Stats.Summary.count d.probes = 0 then "-"
                   else Printf.sprintf "%.0f" (Stats.Summary.mean d.probes));
                ]
          end)
        models)
    budgets;
  let n_budgets = List.length budgets in
  let giant_of key = Option.map fst (List.assoc_opt key !results) in
  let survival_of key = Option.map snd (List.assoc_opt key !results) in
  let notes =
    [
      Printf.sprintf
        "mesh d=2 side %d (%d vertices, %d edges), corner pair; budgets k = 5%%, \
         10%%, 20%% of all edges; every model removes exactly k distinct edges \
         (min-cut padded with random edges once the pair is cut)."
        side graph.Topology.Graph.vertex_count total_edges;
      "Clustered removal concentrates its budget: a ball or blob of k edges \
       isolates the vertices inside it, while the same k spread uniformly \
       leaves the supercritical giant intact — the Bagchi et al. expansion \
       argument made visible in the giant-fraction column.";
    ]
  in
  let max_b = n_budgets - 1 in
  let dominance clustered =
    match (giant_of (max_b, clustered), giant_of (max_b, "random")) with
    | Some c, Some r ->
        [
          Claim.ceiling
            ~id:(Printf.sprintf "E25/%s-dominated" clustered)
            ~description:
              (Printf.sprintf
                 "giant-fraction excess of %s over random at the 20%% budget \
                  (clustered geometry must degrade at least as much)"
                 clustered)
            ~max:0.02 (c -. r);
        ]
    | _ -> []
  in
  let claims =
    List.concat
      [
        (match giant_of (max_b, "random") with
        | Some g ->
            [
              Claim.floor ~id:"E25/random-giant-floor"
                ~description:
                  "random-fault giant fraction at the 20% budget — i.i.d. \
                   removal at p = 0.8 stays deep in the supercritical phase"
                ~min:0.8 g;
            ]
        | None -> []);
        dominance "ball:3";
        dominance "infection";
        dominance "blast:0.5";
        (match survival_of (0, "min-cut") with
        | Some s ->
            [
              Claim.ceiling ~id:"E25/min-cut-kills-pair"
                ~description:
                  "corner-pair survival under the budget-matched min-cut \
                   adversary at the smallest budget (corner connectivity is 2)"
                ~max:0.01 s;
            ]
        | None -> []);
        (let infection_curve =
           List.filter_map
             (fun b -> giant_of (b, "infection"))
             (List.init n_budgets Fun.id)
         in
         if List.length infection_curve = n_budgets then
           [
             Claim.decreasing ~id:"E25/infection-degrades-monotone"
               ~description:
                 "infection-blob giant fraction is non-increasing in the \
                  budget — degradation curves never recover"
               infection_curve;
           ]
         else []);
      ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("degradation by fault geometry at equal budget", !table) ]
