(* E24 — permutation routing on the faulty butterfly, the setting of
   Cole–Maggs–Sitaraman (related work [10]): "a faulty butterfly network
   can perform efficient permutation routing even if each node or edge
   fails with some constant probability."

   Our protocol is deliberately simple (bit-fixing with a one-link
   detour and a pass budget, store-and-forward links of capacity 1), so
   it degrades where CMS's redundant-path routing would not — the
   interesting measurements are how throughput and latency bend as the
   edge failure rate q grows, and what congestion (capacity 1 vs
   unbounded) costs on top. *)

let id = "E24"
let title = "Faulty butterfly: permutation routing under congestion (CMS setting)"

let claim =
  "Random permutation routing on BF(n) stays near-complete with O(n) latency at \
   small constant fault rates; naive bit-fixing (unlike CMS's algorithm) loses \
   packets as q grows, and link congestion adds only an additive latency term."

let run ?(quick = false) stream =
  let n = if quick then 5 else 7 in
  let passes = 4 in
  let trials = if quick then 3 else 6 in
  let qs = if quick then [ 0.0; 0.10 ] else [ 0.0; 0.02; 0.05; 0.10; 0.20 ] in
  let capacities = [ (None, "unbounded"); (Some 1, "1/link/round") ] in
  let rows = 1 lsl n in
  let graph = Topology.Butterfly.graph n in
  let table =
    ref
      (Stats.Table.create
         ~headers:
           [ "q(fail)"; "capacity"; "delivered"; "mean latency"; "max latency"; "dropped" ])
  in
  let cells = ref [] in
  List.iteri
    (fun q_index q ->
      List.iteri
        (fun c_index (capacity, capacity_label) ->
          let substream = Prng.Stream.split stream ((q_index * 10) + c_index) in
          let delivered = ref 0 and total = ref 0 and dropped = ref 0 in
          let latency = ref Stats.Summary.empty in
          for trial = 1 to trials do
            let seed = Prng.Coin.derive (Prng.Stream.seed substream) trial in
            let world = Percolation.World.create graph ~p:(1.0 -. q) ~seed in
            let engine =
              Netsim.Engine.create ?link_capacity:capacity world
                (Netsim.Butterfly_route.protocol ~n)
            in
            Netsim.Butterfly_route.inject_permutation
              (Prng.Stream.split substream (100 + trial))
              engine ~n ~passes;
            (match Netsim.Engine.run ~max_rounds:2000 engine ~until:(fun _ -> false) with
            | `Quiescent _ -> ()
            | `Stopped _ | `Out_of_rounds -> ());
            total := !total + rows;
            delivered := !delivered + Netsim.Butterfly_route.delivered engine;
            dropped := !dropped + Netsim.Butterfly_route.dropped engine;
            List.iter
              (fun r -> latency := Stats.Summary.add !latency (float_of_int r))
              (Netsim.Butterfly_route.latencies engine)
          done;
          cells :=
            ( (q_index, c_index),
              ( float_of_int !delivered /. float_of_int !total,
                if Stats.Summary.count !latency = 0 then nan
                else Stats.Summary.mean !latency ) )
            :: !cells;
          table :=
            Stats.Table.add_row !table
              [
                Printf.sprintf "%.2f" q;
                capacity_label;
                Printf.sprintf "%d/%d" !delivered !total;
                (if Stats.Summary.count !latency = 0 then "-"
                 else Printf.sprintf "%.1f" (Stats.Summary.mean !latency));
                (if Stats.Summary.count !latency = 0 then "-"
                 else Printf.sprintf "%.0f" (Stats.Summary.max !latency));
                string_of_int !dropped;
              ])
        capacities)
    qs;
  let notes =
    [
      Printf.sprintf
        "BF(%d): %d rows, %d nodes; one packet per row to a uniform permutation \
         target; bit-fixing with one-link detours and a %d-pass budget; %d \
         world+permutation trials per cell."
        n rows graph.Topology.Graph.vertex_count passes trials;
      "Read q = 0 rows first: capacity 1 vs unbounded isolates pure congestion — \
       at one packet per row the load is light, so congestion only stretches the \
       latency tail (max grows while delivery stays 100%). Down the columns, \
       faults eat throughput: every lost packet met a node whose both up-links \
       were dead or ran out of passes — CMS's theorem says smarter routing \
       (redundant paths, not our one detour) removes almost all of that loss at \
       constant q.";
    ]
  in
  let claims =
    (* Capacity index 0 is the unbounded column; q index 0 is q = 0. *)
    match
      ( List.assoc_opt (0, 0) !cells,
        List.assoc_opt (List.length qs - 1, 0) !cells )
    with
    | Some (frac0, lat0), Some (frac_last, _) ->
        [
          Claim.band ~id:"E24/fault-free-delivery"
            ~description:
              "delivered fraction at q = 0 (unbounded links) — the fault-free \
               butterfly routes every packet"
            ~lo:0.999 ~hi:1.0001 frac0;
          Claim.band ~id:"E24/fault-free-latency"
            ~description:
              (Printf.sprintf
                 "mean latency at q = 0 (unbounded links) sits at the \
                  bit-fixing pipeline depth ~ n+1 on BF(%d)"
                 n)
            ~lo:(float_of_int n)
            ~hi:(float_of_int n +. 3.0)
            lat0;
          Claim.decreasing ~id:"E24/delivery-degrades"
            ~description:
              "delivered fraction (unbounded links) does not recover from \
               q = 0 to the largest q — naive bit-fixing loses packets"
            [ frac0; frac_last ];
        ]
    | _ -> []
  in
  Report.make ~id ~title ~claim ~seed:(Prng.Stream.seed stream) ~notes ~claims
    [ ("permutation routing on BF(n) under faults and congestion", !table) ]
