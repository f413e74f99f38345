(* E22 — random vs worst-case faults (the two models of Section 1).

   On H_10 the antipodal pair has edge connectivity exactly n = 10
   (Menger + the hypercube's degree), so a min-cut adversary
   disconnects it with 10 deletions while random faults need to kill an
   entire degree-10 neighbourhood by luck. We sweep the deletion budget
   for three strategies — Scenario's Random, Min_cut and Around
   models — and record survival and conditioned routing cost on the
   surviving worlds, through E25's degradation sweep (without its
   cluster census). *)

let id = "E22"
let title = "Worst-case vs random faults: the price of adversarial knowledge"

let claim =
  "The random-fault model of the paper is benign compared to the worst case: \
   edge connectivity n bounds the adversary's budget to disconnect, while random \
   deletions at the same count leave the pair connected w.h.p. until a constant \
   fraction of all edges is gone."

let run ?(quick = false) stream =
  let n = if quick then 8 else 10 in
  let trials = if quick then 5 else 20 in
  let graph = Topology.Hypercube.graph n in
  let source = 0 in
  let target = Topology.Hypercube.antipode ~n source in
  let connectivity = Topology.Mincut.max_flow graph ~source ~sink:target in
  let total_edges = Topology.Graph.edge_count graph in
  let budgets =
    if quick then [ connectivity / 2; connectivity; 4 * connectivity ]
    else
      [
        connectivity / 2;
        connectivity - 1;
        connectivity;
        4 * connectivity;
        total_edges / 4;
        total_edges / 2;
      ]
  in
  let strategies =
    Percolation.Scenario.
      [
        ("random", Random);
        ("min-cut", Min_cut { source; target });
        ("around-source", Around { vertex = source });
      ]
  in
  let grid =
    E25_clustered_faults.sweep ~census:false stream graph ~source ~target
      ~budgets ~models:(List.map snd strategies) ~trials
  in
  let table =
    ref
      (Stats.Table.create
         ~headers:[ "deleted k"; "strategy"; "P[u~v]"; "mean greedy probes (survivors)" ])
  in
  let survival = ref [] in
  List.iteri
    (fun budget_index budget ->
      List.iteri
        (fun strategy_index (name, _) ->
          let d = grid.(budget_index).(strategy_index) in
          if d.E25_clustered_faults.measured > 0 then begin
            survival :=
              ( (budget, name),
                float_of_int d.survived /. float_of_int d.measured )
              :: !survival;
            table :=
              Stats.Table.add_row !table
                [
                  string_of_int budget;
                  name;
                  Printf.sprintf "%d/%d" d.survived d.measured;
                  (if Stats.Summary.count d.probes = 0 then "-"
                   else Printf.sprintf "%.0f" (Stats.Summary.mean d.probes));
                ]
          end)
        strategies)
    budgets;
  let notes =
    [
      Printf.sprintf
        "H_%d, antipodal pair; measured edge connectivity = %d (Menger: equals the \
         degree); total edges = %d; deletions applied to a fault-free world."
        n connectivity total_edges;
      "Expect min-cut and around-source to kill the pair at exactly k = \
       connectivity while random needs k on the order of the whole edge set; on \
       surviving worlds, adversarial deletions also inflate the routing cost more \
       per deleted edge.";
    ]
  in
  let max_budget = List.fold_left max 0 budgets in
  let claims =
    let lookup key = List.assoc_opt key !survival in
    List.concat
      [
        (match lookup (connectivity, "min-cut") with
        | Some s ->
            [
              Claim.ceiling ~id:"E22/min-cut-kills"
                ~description:
                  (Printf.sprintf
                     "min-cut survival at k = connectivity = %d — Menger's \
                      budget always disconnects"
                     connectivity)
                ~max:0.01 s;
            ]
        | None -> []);
        (match lookup (connectivity, "around-source") with
        | Some s ->
            [
              Claim.ceiling ~id:"E22/around-source-kills"
                ~description:
                  (Printf.sprintf
                     "around-source survival at k = connectivity = %d — the \
                      degree-targeting adversary also disconnects"
                     connectivity)
                ~max:0.01 s;
            ]
        | None -> []);
        (match lookup (connectivity, "random") with
        | Some s ->
            [
              Claim.floor ~id:"E22/random-survives-connectivity"
                ~description:
                  (Printf.sprintf
                     "random-fault survival at the adversary's lethal budget \
                      k = %d — the paper's fault model is benign here"
                     connectivity)
                ~min:0.8 s;
            ]
        | None -> []);
        (match lookup (max_budget, "random") with
        | Some s ->
            [
              Claim.floor ~id:"E22/random-survives-max-budget"
                ~description:
                  (Printf.sprintf
                     "random-fault survival at the largest budget k = %d (of \
                      %d edges) — random deletion needs a constant fraction"
                     max_budget total_edges)
                ~min:0.8 s;
            ]
        | None -> []);
      ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("survival and routing cost under three fault strategies", !table) ]
