(* E18 — Section 1.3, acted out distributedly: on a hypercubic P2P
   overlay with failing links, compare the full protocol stack in the
   synchronous message-passing model:

     - flooding     : latency = percolation distance (optimal), message
                      cost ~ all open edges of the informed region;
     - push gossip  : latency ~ log |V| + spread slowdown, one message
                      per informed node per round;
     - greedy token : one probe-per-hop DHT lookup; succeeds while
                      failures are light, gets trapped as q grows.

   The paper's Section 1.3 conclusion — under heavy faults flooding and
   gossip remain latency-efficient for locating data while routing-based
   exact search fails — becomes three measured columns. *)

let id = "E18"
let title = "Distributed lookup on a faulty overlay: flood vs gossip vs greedy"

let claim =
  "Flooding/gossip stay latency-efficient at any failure rate that keeps the \
   network connected, while the routing-based exact lookup's success probability \
   collapses (Section 1.3)."

let run ?(quick = false) stream =
  let n = if quick then 8 else 11 in
  let trials = if quick then 5 else 20 in
  let qs = if quick then [ 0.2; 0.6 ] else [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ] in
  let graph = Topology.Hypercube.graph n in
  let source = 0 in
  let target = Topology.Hypercube.antipode ~n source in
  let table =
    ref
      (Stats.Table.create
         ~headers:
           [
             "q(fail)";
             "flood latency";
             "flood msgs";
             "gossip rounds";
             "greedy success";
             "greedy hops";
           ])
  in
  let per_q = ref [] in
  List.iteri
    (fun index q ->
      let p = 1.0 -. q in
      let substream = Prng.Stream.split stream index in
      let flood_latency = ref Stats.Summary.empty in
      let flood_messages = ref Stats.Summary.empty in
      let gossip_rounds = ref Stats.Summary.empty in
      let greedy_hops = ref Stats.Summary.empty in
      let greedy_successes = ref 0 in
      let completed = ref 0 in
      let attempt = ref 0 in
      while !completed < trials && !attempt < trials * 50 do
        incr attempt;
        let seed = Prng.Coin.derive (Prng.Stream.seed substream) !attempt in
        let world = Percolation.World.create graph ~p ~seed in
        match Percolation.Reveal.connected world source target with
        | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown -> ()
        | Percolation.Reveal.Connected _ ->
            incr completed;
            (* Flood. *)
            let flood = Netsim.Engine.create ~seed world Netsim.Flood.protocol in
            Netsim.Flood.start flood ~source;
            (match
               Netsim.Engine.run flood ~until:(fun e ->
                   Netsim.Flood.informed_at e target <> None)
             with
            | `Stopped _ -> (
                match Netsim.Flood.latency flood ~source ~target with
                | Some latency ->
                    flood_latency :=
                      Stats.Summary.add !flood_latency (float_of_int latency)
                | None -> ())
            | `Quiescent _ | `Out_of_rounds -> ());
            flood_messages :=
              Stats.Summary.add !flood_messages
                (float_of_int
                   (Netsim.Metrics.messages_sent (Netsim.Engine.metrics flood)));
            (* Gossip. *)
            let gossip = Netsim.Engine.create ~seed world Netsim.Gossip.protocol in
            Netsim.Gossip.start gossip ~source;
            (match
               Netsim.Engine.run ~max_rounds:2000 gossip ~until:(fun e ->
                   Netsim.Gossip.informed_at e target <> None)
             with
            | `Stopped rounds ->
                gossip_rounds := Stats.Summary.add !gossip_rounds (float_of_int rounds)
            | `Quiescent _ | `Out_of_rounds -> ());
            (* Greedy token. *)
            let greedy =
              Netsim.Engine.create ~seed world
                (Netsim.Greedy_forward.protocol ~target
                   ~metric:Topology.Hypercube.hamming)
            in
            Netsim.Greedy_forward.start greedy ~source;
            (match
               Netsim.Engine.run greedy ~until:(fun e ->
                   Netsim.Greedy_forward.arrived e ~target <> None)
             with
            | `Stopped _ -> (
                incr greedy_successes;
                match Netsim.Greedy_forward.hops greedy ~target with
                | Some hops -> greedy_hops := Stats.Summary.add !greedy_hops (float_of_int hops)
                | None -> ())
            | `Quiescent _ | `Out_of_rounds -> ())
      done;
      per_q :=
        ( (if !completed = 0 then nan
           else float_of_int !greedy_successes /. float_of_int !completed),
          (if Stats.Summary.count !flood_latency = 0 then nan
           else Stats.Summary.mean !flood_latency),
          (if Stats.Summary.count !gossip_rounds = 0 then nan
           else Stats.Summary.mean !gossip_rounds) )
        :: !per_q;
      let mean_or_dash s =
        if Stats.Summary.count s = 0 then "-"
        else Printf.sprintf "%.1f" (Stats.Summary.mean s)
      in
      table :=
        Stats.Table.add_row !table
          [
            Printf.sprintf "%.2f" q;
            mean_or_dash !flood_latency;
            mean_or_dash !flood_messages;
            mean_or_dash !gossip_rounds;
            Printf.sprintf "%d/%d" !greedy_successes !completed;
            mean_or_dash !greedy_hops;
          ])
    qs;
  let notes =
    [
      Printf.sprintf
        "Hypercubic overlay H_%d (%d nodes), antipodal lookups, conditioned on \
         connectivity, %d trials per failure rate; synchronous message-passing \
         simulation (lib/netsim)."
        n graph.Topology.Graph.vertex_count trials;
      "Flood latency tracks the percolation distance (grows mildly with q); its \
       message column is the price. Gossip pays a log-factor latency with linear \
       per-round traffic. The greedy token is probe-optimal when it succeeds, but \
       its success column collapses as q grows — the paper's Section 1.3 story.";
    ]
  in
  let claims =
    match List.rev !per_q with
    | [] -> []
    | (greedy_first, _, gossip_first) :: _ as rows ->
        let greedy_last, flood_last, gossip_last =
          List.nth rows (List.length rows - 1)
        in
        [
          Claim.decreasing ~id:"E18/greedy-collapse"
            ~description:
              "greedy-token success rate does not recover as q grows"
            [ greedy_first; greedy_last ];
          Claim.band ~id:"E18/flood-latency"
            ~description:
              "flood latency at the largest q stays within 2x the diameter \
               (latency = percolation distance)"
            ~lo:(float_of_int n)
            ~hi:(2.0 *. float_of_int n)
            flood_last;
          Claim.increasing ~id:"E18/gossip-slowdown"
            ~description:"gossip rounds grow (gently) with the failure rate"
            [ gossip_first; gossip_last ];
        ]
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("distributed lookup under growing failure rates", !table) ]
