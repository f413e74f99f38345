(* E26 — protocol progress under link churn (ROADMAP O3).

   The paper's faults are decided before routing starts; here links
   fail and repair *while the protocol runs* (Netsim.Churn's seeded
   renewal process, fail rate swept at fixed repair rate). Flooding
   sends each message exactly once, so a churned-down link silently
   eats it — delivery degrades in direct proportion to the down
   fraction. Gossip re-pushes every round, so a blocked link merely
   delays it — the epidemic reaches the target at every swept rate,
   only later. That contrast is the graceful-degradation claim.

   Trials run through Runner with float-vector cells, so a churn sweep
   is parallel, fault-injectable and checkpoint/resumable like any
   trial campaign; each cell is a pure function of its index. *)

let id = "E26"
let title = "Graceful degradation under link churn"

let claim =
  "Under seeded link churn at fixed repair rate, send-once flooding loses \
   messages in proportion to the churned-down link fraction (delivery rate \
   strictly degrades as the fail rate grows), while round-repeating gossip \
   degrades gracefully: it still informs the antipodal target at every swept \
   rate up to 0.2, paying only in latency."

let run ?(quick = false) stream =
  let n = if quick then 7 else 9 in
  let trials = if quick then 4 else 12 in
  let rates = if quick then [ 0.0; 0.05; 0.2 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  let repair = 0.3 in
  let gossip_rounds = if quick then 80 else 120 in
  let graph = Topology.Hypercube.graph n in
  let vertex_count = graph.Topology.Graph.vertex_count in
  let source = 0 in
  let target = Topology.Hypercube.antipode ~n source in
  let rates_arr = Array.of_list rates in
  let count = Array.length rates_arr * trials in
  (* The "simrun;" prefix and the count/chunk suffix keep the digest of
     journals written before Trial and E26 shared one runner, so those
     journals still resume. *)
  let key =
    lazy
      (Printf.sprintf
         "simrun;e26;graph=%s;rates=%s;repair=%.17g;gossip_rounds=%d;trials=%d;seed=%Ld;count=%d;chunk=%d"
         graph.Topology.Graph.name
         (String.concat "," (List.map (Printf.sprintf "%.17g") rates))
         repair gossip_rounds trials (Prng.Stream.seed stream) count
         Runner.chunk_size)
  in
  (* One cell per (rate, trial): flood delivery rate, flood informed
     fraction, gossip reached flag, gossip rounds-to-target, churned
     blocked sends — all pure in the index. *)
  let compute index =
    let substream = Prng.Stream.split stream index in
    let rate = rates_arr.(index / trials) in
    let world_seed = Prng.Coin.derive (Prng.Stream.seed substream) 1 in
    let world = Percolation.World.create graph ~p:1.0 ~seed:world_seed in
    let churn =
      if rate <= 0.0 then None
      else
        Some
          (Netsim.Churn.make ~fail:rate ~repair
             ~seed:(Prng.Coin.derive (Prng.Stream.seed substream) 2)
             ())
    in
    let flood_engine = Netsim.Engine.create ?churn world Netsim.Flood.protocol in
    Netsim.Flood.start flood_engine ~source;
    ignore
      (Netsim.Engine.run ~max_rounds:(4 * n + 60) flood_engine
         ~until:(fun _ -> false)
        : [ `Stopped of int | `Quiescent of int | `Out_of_rounds ]);
    let flood_metrics = Netsim.Engine.metrics flood_engine in
    let flood_delivery = Netsim.Metrics.delivery_rate flood_metrics in
    let flood_informed =
      float_of_int (Netsim.Flood.informed_count flood_engine)
      /. float_of_int vertex_count
    in
    let blocked = float_of_int (Netsim.Metrics.churn_blocked flood_metrics) in
    let gossip_engine = Netsim.Engine.create ?churn world Netsim.Gossip.protocol in
    Netsim.Gossip.start gossip_engine ~source;
    let gossip_result =
      Netsim.Engine.run ~max_rounds:gossip_rounds gossip_engine ~until:(fun e ->
          Netsim.Gossip.informed_at e target <> None)
    in
    let gossip_reached, gossip_latency =
      match gossip_result with
      | `Stopped rounds -> (1.0, float_of_int rounds)
      | `Quiescent _ | `Out_of_rounds -> (0.0, float_of_int gossip_rounds)
    in
    [| flood_delivery; flood_informed; gossip_reached; gossip_latency; blocked |]
  in
  let chunks, _faults = Runner.run ~key ~codec:Checkpoint.floats ~count compute in
  let table =
    ref
      (Stats.Table.create
         ~headers:
           [
             "fail rate";
             "flood delivery";
             "flood informed";
             "gossip reach";
             "mean gossip rounds";
             "mean blocked sends";
           ])
  in
  let per_rate = ref [] in
  Array.iteri
    (fun rate_index rate ->
      let delivery = ref Stats.Summary.empty in
      let informed = ref Stats.Summary.empty in
      let reached = ref Stats.Summary.empty in
      let latency = ref Stats.Summary.empty in
      let blocked = ref Stats.Summary.empty in
      for trial = 0 to trials - 1 do
        match Runner.cell chunks ((rate_index * trials) + trial) with
        | Some [| d; inf; r; l; b |] ->
            delivery := Stats.Summary.add !delivery d;
            informed := Stats.Summary.add !informed inf;
            reached := Stats.Summary.add !reached r;
            (* Latency is conditioned on reaching (the cap would skew
               the mean); reach itself is claimed separately. *)
            if r > 0.5 then latency := Stats.Summary.add !latency l;
            blocked := Stats.Summary.add !blocked b
        | _ -> () (* quarantined chunk: skip *)
      done;
      if Stats.Summary.count !delivery > 0 then begin
        per_rate :=
          ( rate_index,
            ( Stats.Summary.mean !delivery,
              Stats.Summary.mean !reached,
              (if Stats.Summary.count !latency = 0 then nan
               else Stats.Summary.mean !latency) ) )
          :: !per_rate;
        table :=
          Stats.Table.add_row !table
            [
              Printf.sprintf "%.2f" rate;
              Printf.sprintf "%.3f" (Stats.Summary.mean !delivery);
              Printf.sprintf "%.3f" (Stats.Summary.mean !informed);
              Printf.sprintf "%.2f" (Stats.Summary.mean !reached);
              (if Stats.Summary.count !latency = 0 then "-"
               else Printf.sprintf "%.1f" (Stats.Summary.mean !latency));
              Printf.sprintf "%.0f" (Stats.Summary.mean !blocked);
            ]
      end)
    rates_arr;
  let per_rate = List.rev !per_rate in
  let delivery_of i =
    Option.map (fun (d, _, _) -> d) (List.assoc_opt i per_rate)
  in
  let reach_of i = Option.map (fun (_, r, _) -> r) (List.assoc_opt i per_rate) in
  let latency_of i =
    Option.map (fun (_, _, l) -> l) (List.assoc_opt i per_rate)
  in
  let n_rates = Array.length rates_arr in
  let notes =
    [
      Printf.sprintf
        "H_%d, fault-free base world (p = 1.0), source 0 to its antipode; fail \
         rates %s at repair rate %.1f (geometric sojourns, every link starts \
         up); %d trials per rate, gossip capped at %d rounds."
        n
        (String.concat ", " (List.map (Printf.sprintf "%g") rates))
        repair trials gossip_rounds;
      "Flood delivery tracks the up fraction of links at send time; gossip \
       converts the same churn into latency because an informed node pushes \
       again every round. Blocked sends count percolation-open links that \
       were churned down at the send round (netsim.churn.blocked).";
    ]
  in
  let graceful_rates =
    (* The threshold of the headline claim: every swept rate <= 0.1. *)
    List.filteri (fun i _ -> rates_arr.(i) <= 0.1) (List.init n_rates Fun.id)
  in
  let claims =
    List.concat
      [
        (match delivery_of 0 with
        | Some d ->
            [
              Claim.floor ~id:"E26/zero-churn-full-delivery"
                ~description:
                  "flood delivery rate without churn on the fault-free world \
                   — every send lands"
                ~min:0.999 d;
            ]
        | None -> []);
        (let curve =
           List.filter_map delivery_of (List.init n_rates Fun.id)
         in
         if List.length curve = n_rates then
           [
             Claim.decreasing ~id:"E26/flood-delivery-degrades"
               ~description:
                 "flood delivery rate is non-increasing in the churn fail \
                  rate — send-once protocols pay for every down link"
               curve;
           ]
         else []);
        (let reaches = List.filter_map reach_of graceful_rates in
         if reaches <> [] then
           [
             Claim.floor ~id:"E26/gossip-graceful-to-0.1"
               ~description:
                 "minimum gossip target-reach rate over all churn rates <= \
                  0.1 — the epidemic still gets through"
               ~min:0.9
               (List.fold_left min 1.0 reaches);
           ]
         else []);
        (match (latency_of 0, latency_of (n_rates - 1)) with
        | Some l0, Some l1 when Float.is_finite l0 && Float.is_finite l1 ->
            [
              Claim.increasing ~id:"E26/gossip-pays-in-latency"
                ~description:
                  "mean gossip rounds to the target, no churn vs the highest \
                   rate — graceful degradation is bought with time"
                [ l0; l1 ];
            ]
        | _ -> []);
        (match delivery_of (n_rates - 1) with
        | Some d ->
            [
              Claim.band ~id:"E26/max-churn-delivery-band"
                ~description:
                  "flood delivery rate at the highest fail rate (0.2 vs \
                   repair 0.3) — churn bites but the network stays mostly up"
                ~lo:0.4 ~hi:0.95 d;
            ]
        | None -> []);
      ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("protocol progress vs churn fail rate", !table) ]
