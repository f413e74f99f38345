(* Tests for the netsim library: engine semantics (synchrony, delivery,
   accounting, quiescence) and the four protocols, cross-validated
   against the percolation ground truth. *)

module P = Percolation

let cube n = Topology.Hypercube.graph n
let world ?(p = 1.0) ?(seed = 1L) g = P.World.create g ~p ~seed

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

(* A probe protocol: every node probes its first potential link each
   round and counts its deliveries. Used to test the accounting. *)
type probe_state = { received : int }

let probing_protocol =
  {
    Netsim.Protocol.name = "probe-test";
    init = (fun ~node:_ -> { received = 0 });
    step =
      (fun api state inbox ->
        if Array.length api.Netsim.Api.neighbors > 0 then
          ignore (api.Netsim.Api.probe api.Netsim.Api.neighbors.(0) : bool);
        { received = state.received + List.length inbox });
    idle = (fun _ -> false);
  }

let test_engine_round_counting () =
  let engine = Netsim.Engine.create (world (cube 3)) probing_protocol in
  Alcotest.(check int) "round 0" 0 (Netsim.Engine.round engine);
  Netsim.Engine.run_round engine;
  Netsim.Engine.run_round engine;
  Alcotest.(check int) "round 2" 2 (Netsim.Engine.round engine);
  Alcotest.(check int) "metrics rounds" 2 (Netsim.Metrics.rounds (Netsim.Engine.metrics engine))

let test_engine_distinct_probe_accounting () =
  let engine = Netsim.Engine.create (world (cube 3)) probing_protocol in
  Netsim.Engine.run_round engine;
  Netsim.Engine.run_round engine;
  let metrics = Netsim.Engine.metrics engine in
  (* 8 nodes probe their first link twice: raw 16; each undirected edge
     along bit 0 is probed from both sides but counted once: 4 distinct. *)
  Alcotest.(check int) "raw" 16 (Netsim.Metrics.raw_probes metrics);
  Alcotest.(check int) "distinct" 4 (Netsim.Metrics.distinct_probes metrics)

(* A protocol that only counts its own steps and is always idle: it
   steps only in rounds in which it has mail. *)
let counting_protocol =
  {
    Netsim.Protocol.name = "step-count";
    init = (fun ~node:_ -> 0);
    step = (fun _ steps _ -> steps + 1);
    idle = (fun _ -> true);
  }

let test_engine_injection_and_delivery () =
  let engine = Netsim.Engine.create (world (cube 3)) counting_protocol in
  let stepped () =
    Netsim.Engine.fold_states engine ~init:[] ~f:(fun acc node steps ->
        if steps > 0 then (node, steps) :: acc else acc)
  in
  Netsim.Engine.inject engine ~node:5 ~sender:5 ();
  Netsim.Engine.run_round engine;
  Alcotest.(check (list (pair int int))) "only node 5 stepped, once" [ (5, 1) ] (stepped ());
  Netsim.Engine.run_round engine;
  Alcotest.(check (list (pair int int))) "a round without mail steps no node"
    [ (5, 1) ] (stepped ());
  match Netsim.Engine.run ~until:(fun _ -> false) engine with
  | `Quiescent _ -> ()
  | `Stopped _ | `Out_of_rounds -> Alcotest.fail "expected quiescence"

let test_engine_message_loss_on_closed_links () =
  (* In an all-closed world flooding informs only the source. *)
  let engine = Netsim.Engine.create (world ~p:0.0 (cube 4)) Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match Netsim.Engine.run ~until:(fun _ -> false) engine with
  | `Quiescent _ -> ()
  | `Stopped _ | `Out_of_rounds -> Alcotest.fail "expected quiescence");
  Alcotest.(check int) "only source informed" 1 (Netsim.Flood.informed_count engine);
  let metrics = Netsim.Engine.metrics engine in
  Alcotest.(check int) "sent" 4 (Netsim.Metrics.messages_sent metrics);
  Alcotest.(check int) "none delivered" 0 (Netsim.Metrics.messages_delivered metrics)

let test_engine_determinism () =
  let run () =
    let engine = Netsim.Engine.create ~seed:9L (world ~p:0.6 ~seed:4L (cube 6)) Netsim.Gossip.protocol in
    Netsim.Gossip.start engine ~source:0;
    for _ = 1 to 30 do
      Netsim.Engine.run_round engine
    done;
    (Netsim.Gossip.informed_count engine, (Netsim.Metrics.messages_sent (Netsim.Engine.metrics engine)))
  in
  Alcotest.(check (pair int int)) "replayable" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Flood                                                               *)

let test_flood_full_world_is_bfs () =
  let n = 6 in
  let engine = Netsim.Engine.create (world (cube n)) Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match
     Netsim.Engine.run engine ~until:(fun e -> Netsim.Flood.informed_count e = 1 lsl n)
   with
  | `Stopped _ -> ()
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "flood did not cover");
  (* Every node's latency equals its Hamming distance from the source. *)
  for v = 0 to (1 lsl n) - 1 do
    match Netsim.Flood.latency engine ~source:0 ~target:v with
    | Some d -> Alcotest.(check int) (Printf.sprintf "latency %d" v) (Topology.Hypercube.hamming 0 v) d
    | None -> Alcotest.fail "uninformed node"
  done

let test_flood_latency_equals_chemical_distance () =
  (* The headline cross-validation: flooding is distributed BFS of the
     open subgraph, so latency = percolation distance, on every seed. *)
  let n = 7 in
  let g = cube n in
  for trial = 1 to 20 do
    let seed = Prng.Coin.derive 777L trial in
    let w = world ~p:0.3 ~seed g in
    let engine = Netsim.Engine.create w Netsim.Flood.protocol in
    Netsim.Flood.start engine ~source:0;
    (match Netsim.Engine.run engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | `Stopped _ | `Out_of_rounds -> Alcotest.fail "flood should go quiescent");
    let target = (1 lsl n) - 1 in
    let simulated = Netsim.Flood.latency engine ~source:0 ~target in
    let truth = P.Chemical.distance w 0 target in
    Alcotest.(check (option int)) (Printf.sprintf "seed %d" trial) truth simulated
  done

let test_flood_informed_count_is_cluster_size () =
  let g = cube 7 in
  let w = world ~p:0.25 ~seed:31L g in
  let engine = Netsim.Engine.create w Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match Netsim.Engine.run engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "expected quiescence");
  let cluster, truncated = P.Reveal.cluster_of w 0 in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "informed = cluster" (List.length cluster)
    (Netsim.Flood.informed_count engine)

let test_flood_message_cost () =
  (* Each informed node sends exactly degree messages, once. *)
  let n = 5 in
  let engine = Netsim.Engine.create (world (cube n)) Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match Netsim.Engine.run engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check int) "messages = V * degree" ((1 lsl n) * n)
    (Netsim.Metrics.messages_sent (Netsim.Engine.metrics engine))

(* ------------------------------------------------------------------ *)
(* Gossip                                                              *)

let test_gossip_spreads_on_full_world () =
  let n = 6 in
  let engine = Netsim.Engine.create ~seed:3L (world (cube n)) Netsim.Gossip.protocol in
  Netsim.Gossip.start engine ~source:0;
  match
    Netsim.Engine.run ~max_rounds:500 engine ~until:(fun e ->
        Netsim.Gossip.informed_count e = 1 lsl n)
  with
  | `Stopped rounds ->
      Alcotest.(check bool)
        (Printf.sprintf "spread in %d rounds" rounds)
        true
        (rounds < 200)
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "gossip did not spread"

let test_gossip_respects_components () =
  (* Gossip cannot jump across a disconnected world. *)
  let g = cube 6 in
  let w = world ~p:0.15 ~seed:5L g in
  let cluster, _ = P.Reveal.cluster_of w 0 in
  let engine = Netsim.Engine.create ~seed:3L w Netsim.Gossip.protocol in
  Netsim.Gossip.start engine ~source:0;
  for _ = 1 to 300 do
    Netsim.Engine.run_round engine
  done;
  Alcotest.(check bool) "within cluster" true
    (Netsim.Gossip.informed_count engine <= List.length cluster)

(* ------------------------------------------------------------------ *)
(* Greedy forwarding                                                   *)

let hamming_metric u v = Topology.Hypercube.hamming u v

let test_greedy_full_world_direct () =
  let n = 6 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create (world (cube n))
      (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
  in
  Netsim.Greedy_forward.start engine ~source:0;
  (match
     Netsim.Engine.run engine ~until:(fun e ->
         Netsim.Greedy_forward.arrived e ~target <> None)
   with
  | `Stopped _ -> ()
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "greedy failed on full world");
  Alcotest.(check (option int)) "hops = distance" (Some n)
    (Netsim.Greedy_forward.hops engine ~target)

let test_greedy_fails_cleanly () =
  (* Strictly-decreasing greedy cannot leave a local trap: on a heavily
     faulty world it must drop the token and quiesce. *)
  let n = 8 in
  let target = (1 lsl n) - 1 in
  let g = cube n in
  let dropped = ref 0 and arrived = ref 0 in
  for trial = 1 to 30 do
    let w = world ~p:0.35 ~seed:(Prng.Coin.derive 888L trial) g in
    let engine =
      Netsim.Engine.create w (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
    in
    Netsim.Greedy_forward.start engine ~source:0;
    (match
       Netsim.Engine.run engine ~until:(fun e ->
           Netsim.Greedy_forward.arrived e ~target <> None)
     with
    | `Stopped _ -> incr arrived
    | `Quiescent _ ->
        incr dropped;
        Alcotest.(check bool) "drop recorded" true
          (Netsim.Greedy_forward.dropped engine <> None)
    | `Out_of_rounds -> Alcotest.fail "greedy must terminate")
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes seen (%d arrived, %d dropped)" !arrived !dropped)
    true
    (!arrived > 0 && !dropped > 0)

let test_greedy_probe_cost_bounded () =
  let n = 6 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create (world (cube n))
      (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
  in
  Netsim.Greedy_forward.start engine ~source:0;
  ignore (Netsim.Engine.run engine ~until:(fun e -> Netsim.Greedy_forward.arrived e ~target <> None));
  (* One probe per hop on the fault-free cube. *)
  Alcotest.(check int) "probes" n (Netsim.Metrics.distinct_probes (Netsim.Engine.metrics engine))

(* ------------------------------------------------------------------ *)
(* Random walk                                                         *)

let test_walk_reaches_target_full_world () =
  let n = 4 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create ~seed:11L (world (cube n)) (Netsim.Random_walk.protocol ~target)
  in
  Netsim.Random_walk.start engine ~source:0;
  match
    Netsim.Engine.run ~max_rounds:5000 engine ~until:(fun e ->
        Netsim.Random_walk.arrived e ~target <> None)
  with
  | `Stopped rounds -> Alcotest.(check bool) "positive" true (rounds >= n)
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "walk lost"

let test_walk_holds_through_closed_links () =
  (* In an all-closed world the walk holds forever (never quiescent,
     never lost) — the idle predicate keeps the engine honest. *)
  let engine =
    Netsim.Engine.create ~seed:11L (world ~p:0.0 (cube 4))
      (Netsim.Random_walk.protocol ~target:15)
  in
  Netsim.Random_walk.start engine ~source:0;
  match Netsim.Engine.run ~max_rounds:50 engine ~until:(fun _ -> false) with
  | `Out_of_rounds -> ()
  | `Quiescent _ -> Alcotest.fail "holder is not idle"
  | `Stopped _ -> Alcotest.fail "nothing to stop on"

let test_walk_visits_accounting () =
  let n = 4 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create ~seed:13L (world (cube n)) (Netsim.Random_walk.protocol ~target)
  in
  Netsim.Random_walk.start engine ~source:0;
  (match
     Netsim.Engine.run ~max_rounds:5000 engine ~until:(fun e ->
         Netsim.Random_walk.arrived e ~target <> None)
   with
  | `Stopped rounds ->
      (* On the fault-free cube the walk moves every round, so visits =
         rounds. *)
      Alcotest.(check int) "visits = rounds" rounds (Netsim.Random_walk.total_visits engine)
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "walk lost")

(* ------------------------------------------------------------------ *)
(* Link capacity (store-and-forward congestion)                        *)

(* A fan-in protocol: every non-zero vertex of a star sends one message
   to the hub each round for the first round only; with capacity 1 per
   directed link the hub still receives them all (each sender has its
   own link), but a chain forces serialisation. *)

type relay_state = { forwarded : int; received_at : int list }

let relay_protocol ~sink =
  (* Forward every received message towards the sink along the single
     path of a path-shaped topology (vertex ids decrease towards 0). *)
  {
    Netsim.Protocol.name = "relay";
    init = (fun ~node:_ -> { forwarded = 0; received_at = [] });
    step =
      (fun api state inbox ->
        if api.Netsim.Api.node = sink then
          {
            state with
            received_at =
              List.map (fun _ -> api.Netsim.Api.round) inbox @ state.received_at;
          }
        else begin
          List.iter
            (fun _ -> api.Netsim.Api.send (api.Netsim.Api.node - 1) Netsim.Flood.Rumor)
            inbox;
          { state with forwarded = state.forwarded + List.length inbox }
        end);
    idle = (fun _ -> true);
  }

(* A 1-d path graph: mesh with d = 1. *)
let path_graph length = Topology.Mesh.graph ~d:1 ~m:length

let test_capacity_serialises_chain () =
  (* Inject 4 messages at node 3 of a path 3-2-1-0 with capacity 1: the
     sink receives one per round, so the last arrives 3 rounds after the
     first. Unbounded capacity delivers all simultaneously. *)
  let run capacity =
    let w = world (path_graph 4) in
    let engine = Netsim.Engine.create ?link_capacity:capacity w (relay_protocol ~sink:0) in
    for _ = 1 to 4 do
      Netsim.Engine.inject engine ~node:3 ~sender:3 Netsim.Flood.Rumor
    done;
    (match Netsim.Engine.run ~max_rounds:50 engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | `Stopped _ | `Out_of_rounds -> Alcotest.fail "should quiesce");
    (Netsim.Engine.state engine 0).received_at |> List.sort compare
  in
  (match run None with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "simultaneous" true (a = b && b = c && c = d)
  | _ -> Alcotest.fail "four arrivals expected");
  match run (Some 1) with
  | [ a; _; _; d ] -> Alcotest.(check int) "serialised by 3 rounds" 3 (d - a)
  | _ -> Alcotest.fail "four arrivals expected"

let test_capacity_preserves_messages () =
  (* Nothing is lost to congestion: all injected messages arrive. *)
  let w = world (path_graph 6) in
  let engine = Netsim.Engine.create ~link_capacity:1 w (relay_protocol ~sink:0) in
  for _ = 1 to 10 do
    Netsim.Engine.inject engine ~node:5 ~sender:5 Netsim.Flood.Rumor
  done;
  (match Netsim.Engine.run ~max_rounds:200 engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "should quiesce");
  Alcotest.(check int) "all delivered" 10
    (List.length (Netsim.Engine.state engine 0).received_at)

let test_capacity_invalid () =
  let w = world (path_graph 3) in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Engine.create: link capacity must be >= 1") (fun () ->
      ignore (Netsim.Engine.create ~link_capacity:0 w (relay_protocol ~sink:0)))

(* ------------------------------------------------------------------ *)
(* Butterfly permutation routing                                       *)

let test_butterfly_full_world_delivers_all () =
  let n = 4 in
  let g = Topology.Butterfly.graph n in
  let engine = Netsim.Engine.create (world g) (Netsim.Butterfly_route.protocol ~n) in
  Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 5L) engine ~n ~passes:2;
  (match Netsim.Engine.run ~max_rounds:200 engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "should quiesce");
  Alcotest.(check int) "all delivered" 16 (Netsim.Butterfly_route.delivered engine);
  Alcotest.(check int) "none dropped" 0 (Netsim.Butterfly_route.dropped engine);
  (* One pass suffices without faults: latency <= n + 1. *)
  List.iter
    (fun r -> Alcotest.(check bool) "single pass" true (r <= n + 1))
    (Netsim.Butterfly_route.latencies engine)

let test_butterfly_conservation_under_faults () =
  (* Delivered + dropped = injected on every world. *)
  let n = 4 in
  let g = Topology.Butterfly.graph n in
  for trial = 1 to 10 do
    let w = P.World.create g ~p:0.85 ~seed:(Prng.Coin.derive 606L trial) in
    let engine = Netsim.Engine.create w (Netsim.Butterfly_route.protocol ~n) in
    Netsim.Butterfly_route.inject_permutation
      (Prng.Stream.create (Prng.Coin.derive 707L trial))
      engine ~n ~passes:3;
    (match Netsim.Engine.run ~max_rounds:500 engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | _ -> Alcotest.fail "should quiesce");
    Alcotest.(check int)
      (Printf.sprintf "conservation, trial %d" trial)
      16
      (Netsim.Butterfly_route.delivered engine + Netsim.Butterfly_route.dropped engine)
  done

let test_butterfly_capacity_only_delays () =
  let n = 4 in
  let g = Topology.Butterfly.graph n in
  let run capacity =
    let engine =
      Netsim.Engine.create ?link_capacity:capacity (world g)
        (Netsim.Butterfly_route.protocol ~n)
    in
    Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 9L) engine ~n
      ~passes:2;
    (match Netsim.Engine.run ~max_rounds:500 engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | _ -> Alcotest.fail "should quiesce");
    ( Netsim.Butterfly_route.delivered engine,
      List.fold_left max 0 (Netsim.Butterfly_route.latencies engine) )
  in
  let delivered_unbounded, max_unbounded = run None in
  let delivered_capped, max_capped = run (Some 1) in
  Alcotest.(check int) "same delivery" delivered_unbounded delivered_capped;
  Alcotest.(check bool) "capped at least as slow" true (max_capped >= max_unbounded)

(* ------------------------------------------------------------------ *)
(* Engine edge guards                                                  *)

(* Node 0 of the path 0-1-2-3 calls [use] on vertex 2, two hops away:
   the engine must reject it with the graph's own exception rather than
   silently answering, on a cached world (CSR rows) and a lazy one (the
   [edge_id] closure) alike. *)
let check_non_neighbour_raises what use =
  List.iter
    (fun cache ->
      let bad =
        {
          Netsim.Protocol.name = "bad-" ^ what;
          init = (fun ~node:_ -> ());
          step = (fun api () _ -> if api.Netsim.Api.node = 0 then use api 2);
          idle = (fun _ -> false);
        }
      in
      let w = P.World.create ~cache (path_graph 4) ~p:1.0 ~seed:1L in
      Alcotest.(check bool) "world path as asked" cache (P.World.cached w);
      let engine = Netsim.Engine.create w bad in
      match Netsim.Engine.run_round engine with
      | () -> Alcotest.failf "%s to a non-neighbour should raise (cache %b)" what cache
      | exception Topology.Graph.Not_an_edge _ -> ())
    [ true; false ]

let test_probe_non_neighbour_raises () =
  check_non_neighbour_raises "probe" (fun api v ->
      ignore (api.Netsim.Api.probe v : bool))

let test_send_non_neighbour_raises () =
  check_non_neighbour_raises "send" (fun api v -> api.Netsim.Api.send v ())

let test_inject_delivers_at_round_one () =
  let engine = Netsim.Engine.create (world (cube 3)) probing_protocol in
  Netsim.Engine.inject engine ~node:5 ~sender:5 ();
  Alcotest.(check int) "queued" 1 (Netsim.Engine.in_flight engine);
  Netsim.Engine.run_round engine;
  Alcotest.(check int) "received at round 1" 1 (Netsim.Engine.state engine 5).received;
  Alcotest.(check int) "others got nothing" 0 (Netsim.Engine.state engine 0).received;
  (* Injection is a bootstrap, not traffic. *)
  Alcotest.(check int) "not counted as sent" 0
    (Netsim.Metrics.messages_sent (Netsim.Engine.metrics engine))

let test_inject_out_of_range_raises () =
  let engine = Netsim.Engine.create (world (cube 3)) counting_protocol in
  Alcotest.check_raises "vertex 8 of an 8-node cube"
    (Invalid_argument "hypercube(n=3): vertex 8 out of range [0,8)") (fun () ->
      Netsim.Engine.inject engine ~node:8 ~sender:0 ())

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)

let test_churn_spec_parsing () =
  (match Netsim.Churn.of_spec "fail=0.1,repair=0.4,seed=9" with
  | Ok plan ->
      Alcotest.(check string) "describe" "fail=0.1,repair=0.4,seed=9"
        (Netsim.Churn.describe plan);
      (match Netsim.Churn.of_string (Netsim.Churn.to_string plan) with
      | Ok back ->
          Alcotest.(check string) "churnplan/v1 round trip"
            (Netsim.Churn.describe plan) (Netsim.Churn.describe back)
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m);
  (match Netsim.Churn.of_spec "fail=0.2" with
  | Ok plan ->
      Alcotest.(check string) "repair defaults to fail, seed to 0"
        "fail=0.2,repair=0.2,seed=0" (Netsim.Churn.describe plan)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun spec ->
      match Netsim.Churn.of_spec spec with
      | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S should be rejected" spec)
      | Error _ -> ())
    [ ""; "fail=oops"; "repair=0.2"; "fail=1.5"; "fail=0.1,bogus=3";
      "fail=0.1,fail=0.9,repair=0.2,repair=0.8"; "fail=0.1,seed=1,seed=2" ]

let test_churn_every_link_starts_up () =
  let g = cube 5 in
  let plan = Netsim.Churn.make ~fail:0.9 ~repair:0.1 ~seed:3L () in
  let state = Netsim.Churn.instantiate plan ~world_seed:17L in
  for edge = 0 to Topology.Graph.edge_count g - 1 do
    if not (Netsim.Churn.link_up state ~edge ~round:1) then
      Alcotest.fail (Printf.sprintf "edge %d down at round 1" edge)
  done

let test_churn_zero_fail_never_fires () =
  let plan = Netsim.Churn.make ~fail:0.0 ~repair:0.5 ~seed:3L () in
  let state = Netsim.Churn.instantiate plan ~world_seed:17L in
  List.iter
    (fun round ->
      Alcotest.(check bool)
        (Printf.sprintf "up at round %d" round)
        true
        (Netsim.Churn.link_up state ~edge:12 ~round))
    [ 1; 2; 100; 100_000 ]

let test_churn_query_order_irrelevant () =
  (* Trajectories extend lazily; answers must not depend on the order
     rounds are asked in. Query one instance backwards and scattered,
     the other forwards, and compare everywhere. *)
  let plan = Netsim.Churn.make ~fail:0.3 ~repair:0.4 ~seed:11L () in
  let forward = Netsim.Churn.instantiate plan ~world_seed:5L in
  let scattered = Netsim.Churn.instantiate plan ~world_seed:5L in
  let edges = [ 0; 3; 7 ] and rounds = 60 in
  List.iter
    (fun edge ->
      ignore (Netsim.Churn.link_up scattered ~edge ~round:rounds : bool);
      ignore (Netsim.Churn.link_up scattered ~edge ~round:7 : bool))
    edges;
  List.iter
    (fun edge ->
      for round = 1 to rounds do
        Alcotest.(check bool)
          (Printf.sprintf "edge %d round %d" edge round)
          (Netsim.Churn.link_up forward ~edge ~round)
          (Netsim.Churn.link_up scattered ~edge ~round)
      done)
    edges

let test_churn_negative_edge_rejected () =
  let plan = Netsim.Churn.make ~fail:0.3 ~repair:0.4 ~seed:11L () in
  let state = Netsim.Churn.instantiate plan ~world_seed:5L in
  Alcotest.check_raises "edge -3"
    (Invalid_argument "Netsim.Churn.link_up: negative edge id -3") (fun () ->
      ignore (Netsim.Churn.link_up state ~edge:(-3) ~round:4 : bool))

(* The earlier trajectory code, kept as the oracle for [Churn.link_up]:
   per edge, a toggle-round array extended from the edge's stream on
   demand (a zero hazard or an overflow freezes it) and answered by
   binary search over it. *)
let reference_link_up ~fail ~repair ~seed ~world_seed =
  let edge_seed = Int64.logxor (Prng.Coin.derive seed 0xC4) world_seed in
  let cells = Hashtbl.create 16 in
  let geometric stream rate =
    if rate >= 1.0 then 1
    else
      let u = Prng.Stream.float_unit stream in
      let k = Float.ceil (Float.log1p (-.u) /. Float.log1p (-.rate)) in
      if Float.is_finite k && k < 1073741823.0 then max 1 (int_of_float k)
      else max_int / 4
  in
  fun ~edge ~round ->
    if not (Hashtbl.mem cells edge) then
      Hashtbl.replace cells edge
        (Prng.Stream.create (Prng.Coin.derive edge_seed edge), ref [||], ref 1);
    let stream, toggles, horizon = Hashtbl.find cells edge in
    let continue = ref (fail > 0.0) in
    while !continue && !horizon <= round do
      let rate = if Array.length !toggles land 1 = 0 then fail else repair in
      let next = if rate <= 0.0 then min_int else !horizon + geometric stream rate in
      if next < !horizon then continue := false
      else (toggles := Array.append !toggles [| next |]; horizon := next)
    done;
    let lo = ref 0 and hi = ref (Array.length !toggles) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if !toggles.(mid) <= round then lo := mid + 1 else hi := mid
    done;
    !lo land 1 = 0

let test_churn_blocked_accounting () =
  (* On a fault-free world with unlimited capacity every sent message
     is either delivered, blocked by churn, or still in flight. *)
  let engine =
    Netsim.Engine.create
      ~churn:(Netsim.Churn.make ~fail:0.3 ~repair:0.3 ~seed:2L ())
      (world (cube 5)) Netsim.Gossip.protocol
  in
  Netsim.Gossip.start engine ~source:0;
  for _ = 1 to 30 do
    Netsim.Engine.run_round engine
  done;
  let m = Netsim.Engine.metrics engine in
  Alcotest.(check bool) "churn actually bit" true (Netsim.Metrics.churn_blocked m > 0);
  (* Unlimited capacity counts delivery at send time, so on a
     fault-free world every send is either delivered or blocked. *)
  Alcotest.(check int) "sent = delivered + blocked"
    (Netsim.Metrics.messages_sent m)
    (Netsim.Metrics.messages_delivered m + Netsim.Metrics.churn_blocked m)

(* ------------------------------------------------------------------ *)
(* Active-set scheduling                                               *)

(* The contract the engine's wake set rests on: an idle state stepped
   with no mail comes back unchanged and calls nothing on [api].
   Checked on every idle state a protocol reaches in a faulty run. *)
let check_idle_steps_are_no_ops world protocol start =
  let name = protocol.Netsim.Protocol.name in
  let graph = P.World.graph world in
  let engine = Netsim.Engine.create world protocol in
  start engine;
  let states () =
    Netsim.Engine.fold_states engine ~init:[] ~f:(fun acc node s -> (node, s) :: acc)
  in
  let reached = ref (states ()) in
  for _ = 1 to 30 do
    Netsim.Engine.run_round engine;
    reached := states () @ !reached
  done;
  let forbidden call = Alcotest.failf "%s: an idle step called api.%s" name call in
  List.iter
    (fun (node, state) ->
      if protocol.Netsim.Protocol.idle state then begin
        let api =
          {
            Netsim.Api.node;
            round = 31;
            neighbors = graph.Topology.Graph.neighbors node;
            probe = (fun _ -> forbidden "probe");
            send = (fun _ _ -> forbidden "send");
            random_int = (fun _ -> forbidden "random_int");
          }
        in
        if protocol.Netsim.Protocol.step api state [] <> state then
          Alcotest.failf "%s: an idle step changed node %d's state" name node
      end)
    !reached

let test_idle_steps_are_no_ops () =
  let w = world ~p:0.6 ~seed:7L (cube 5) in
  check_idle_steps_are_no_ops w Netsim.Flood.protocol (fun e ->
      Netsim.Flood.start e ~source:0);
  check_idle_steps_are_no_ops w Netsim.Gossip.protocol (fun e ->
      Netsim.Gossip.start e ~source:0);
  check_idle_steps_are_no_ops w
    (Netsim.Greedy_forward.protocol ~target:31 ~metric:hamming_metric)
    (fun e -> Netsim.Greedy_forward.start e ~source:0);
  check_idle_steps_are_no_ops w (Netsim.Random_walk.protocol ~target:31) (fun e ->
      Netsim.Random_walk.start e ~source:0);
  let n = 3 in
  check_idle_steps_are_no_ops
    (world ~p:0.8 ~seed:7L (Topology.Butterfly.graph n))
    (Netsim.Butterfly_route.protocol ~n)
    (fun e ->
      Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 7L) e ~n ~passes:2)

let test_woken_nodes_step_in_ascending_order () =
  let order = ref [] in
  let recorder =
    {
      counting_protocol with
      Netsim.Protocol.step =
        (fun api steps _ ->
          order := api.Netsim.Api.node :: !order;
          steps + 1);
    }
  in
  let engine = Netsim.Engine.create (world (cube 3)) recorder in
  List.iter (fun node -> Netsim.Engine.inject engine ~node ~sender:node ()) [ 6; 1; 4; 1 ];
  Netsim.Engine.run_round engine;
  Alcotest.(check (list int)) "ascending, each once" [ 1; 4; 6 ] (List.rev !order)

(* Everything a run exposes after [rounds] rounds: every node's state,
   the metric counters and the trace/v1 lines of its probes. *)
let observe ?link_capacity ?churn ~rounds world protocol start =
  let engine = Netsim.Engine.create ~seed:5L ?link_capacity ?churn world protocol in
  start engine;
  let (), record =
    Obs.Trace.capture ~index:1 (fun () ->
        for _ = 1 to rounds do
          Netsim.Engine.run_round engine
        done)
  in
  ( Netsim.Engine.fold_states engine ~init:[] ~f:(fun acc node s -> (node, s) :: acc),
    Obs.Metrics.counters (Netsim.Metrics.snapshot (Netsim.Engine.metrics engine)),
    Obs.Trace.record_lines record )

(* [protocol] as is against the same protocol declared never idle, which
   the engine must step at every node in every round (counted). *)
let same_as_stepping_every_node ?link_capacity ?churn ~rounds world protocol start =
  let steps = ref 0 in
  let every_node =
    {
      protocol with
      Netsim.Protocol.idle = (fun _ -> false);
      step =
        (fun api state inbox ->
          incr steps;
          protocol.Netsim.Protocol.step api state inbox);
    }
  in
  let run protocol = observe ?link_capacity ?churn ~rounds world protocol start in
  run protocol = run every_node
  && !steps = rounds * (P.World.graph world).Topology.Graph.vertex_count

(* A check over one run configuration, for any protocol. *)
type agree = {
  agree :
    'state 'message.
    ?link_capacity:int ->
    ?churn:Netsim.Churn.plan ->
    p:float ->
    seed:int64 ->
    Topology.Graph.t ->
    ('state, 'message) Netsim.Protocol.t ->
    (('state, 'message) Netsim.Engine.t -> unit) ->
    bool;
}

(* [agree] must hold for every in-tree protocol with its start (flood,
   gossip, greedy-forward and random-walk on a 5-cube, butterfly
   bit-fixing on a 3-butterfly) at a random seed and p, with churn and
   a link capacity of 1 each on or off, and probe tracing on. *)
let every_protocol_agrees ~name { agree } =
  QCheck.Test.make ~name ~count:60
    QCheck.(quad int64 (float_range 0.3 1.0) bool bool)
    (fun (seed, p, churned, capped) ->
      let churn =
        if churned then Some (Netsim.Churn.make ~fail:0.1 ~repair:0.3 ~seed ())
        else None
      in
      let link_capacity = if capped then Some 1 else None in
      let same graph protocol start =
        agree ?link_capacity ?churn ~p ~seed graph protocol start
      in
      let source = Int64.to_int (Int64.logand seed 31L) and target = 31 in
      let n = 3 in
      Obs.Trace.enable ~sink:ignore;
      Fun.protect ~finally:Obs.Trace.disable (fun () ->
          same (cube 5) Netsim.Flood.protocol (fun e -> Netsim.Flood.start e ~source)
          && same (cube 5) Netsim.Gossip.protocol (fun e ->
                 Netsim.Gossip.start e ~source)
          && same (cube 5)
               (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
               (fun e -> Netsim.Greedy_forward.start e ~source)
          && same (cube 5) (Netsim.Random_walk.protocol ~target) (fun e ->
                 Netsim.Random_walk.start e ~source)
          && same (Topology.Butterfly.graph n) (Netsim.Butterfly_route.protocol ~n)
               (fun e ->
                 Netsim.Butterfly_route.inject_permutation (Prng.Stream.create seed) e
                   ~n ~passes:2)))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"flood latency = chemical distance" ~count:60
      (pair int64 (float_range 0.2 0.9))
      (fun (seed, p) ->
        let g = cube 6 in
        let w = P.World.create g ~p ~seed in
        let engine = Netsim.Engine.create w Netsim.Flood.protocol in
        Netsim.Flood.start engine ~source:0;
        (match Netsim.Engine.run engine ~until:(fun _ -> false) with
        | `Quiescent _ -> ()
        | `Stopped _ | `Out_of_rounds -> ());
        Netsim.Flood.latency engine ~source:0 ~target:63
        = P.Chemical.distance w 0 63);
    Test.make ~name:"flood informs exactly the source cluster" ~count:60
      (pair int64 (float_range 0.1 0.9))
      (fun (seed, p) ->
        let g = cube 6 in
        let w = P.World.create g ~p ~seed in
        let engine = Netsim.Engine.create w Netsim.Flood.protocol in
        Netsim.Flood.start engine ~source:0;
        (match Netsim.Engine.run engine ~until:(fun _ -> false) with
        | `Quiescent _ -> ()
        | `Stopped _ | `Out_of_rounds -> ());
        let cluster, _ = P.Reveal.cluster_of w 0 in
        Netsim.Flood.informed_count engine = List.length cluster);
    Test.make ~name:"butterfly conservation" ~count:40
      (pair int64 (float_range 0.6 1.0))
      (fun (seed, p) ->
        let n = 4 in
        let g = Topology.Butterfly.graph n in
        let w = P.World.create g ~p ~seed in
        let engine = Netsim.Engine.create w (Netsim.Butterfly_route.protocol ~n) in
        Netsim.Butterfly_route.inject_permutation
          (Prng.Stream.create (Int64.add seed 1L))
          engine ~n ~passes:3;
        (match Netsim.Engine.run ~max_rounds:500 engine ~until:(fun _ -> false) with
        | `Quiescent _ | `Stopped _ | `Out_of_rounds -> ());
        Netsim.Butterfly_route.delivered engine + Netsim.Butterfly_route.dropped engine
        = 16);
    Test.make ~name:"churned gossip is replayable" ~count:30
      (pair int64 (float_range 0.05 0.5))
      (fun (seed, fail) ->
        let run () =
          let engine =
            Netsim.Engine.create ~seed:9L
              ~churn:(Netsim.Churn.make ~fail ~repair:0.4 ~seed ())
              (P.World.create (cube 5) ~p:1.0 ~seed:4L)
              Netsim.Gossip.protocol
          in
          Netsim.Gossip.start engine ~source:0;
          for _ = 1 to 25 do
            Netsim.Engine.run_round engine
          done;
          let m = Netsim.Engine.metrics engine in
          ( Netsim.Gossip.informed_count engine,
            Netsim.Metrics.messages_sent m,
            Netsim.Metrics.churn_blocked m )
        in
        run () = run ());
    (* Besides the edge cases, the rates E26 sweeps (fail 0.02-0.2 at
       repair 0.3) over horizons up to 450 rounds: churn-sim's flood
       runs 415, and each edge then draws dozens of sojourns. *)
    Test.make ~name:"churn cursors = reference trajectories" ~count:150
      (quad
         (oneof
            [
              pair (oneofl [ 0.0; 1e-9; 0.05; 0.5; 1.0 ]) (oneofl [ 0.0; 0.3; 1.0 ]);
              pair (oneofl [ 0.02; 0.05; 0.1; 0.2 ]) (always 0.3);
            ])
         (pair int64 int64)
         (list_of_size Gen.(1 -- 6) (int_bound 100_000))
         (int_range 1 450))
      (fun ((fail, repair), (seed, world_seed), edges, rounds) ->
        let plan = Netsim.Churn.make ~seed ~fail ~repair () in
        let state = Netsim.Churn.instantiate plan ~world_seed in
        let reference = reference_link_up ~fail ~repair ~seed ~world_seed in
        let agree round edge =
          Netsim.Churn.link_up state ~edge ~round = reference ~edge ~round
        in
        let ascending = List.init (rounds + 1) Fun.id in
        let shuffled = Array.of_list ascending in
        Prng.Stream.shuffle_in_place (Prng.Stream.create seed) shuffled;
        (* One instance, asked engine-style (ascending rounds, every
           edge per round), then backwards, then in a random order. *)
        List.for_all
          (fun order -> List.for_all (fun round -> List.for_all (agree round) edges) order)
          [ ascending; List.rev ascending; Array.to_list shuffled ]);
    every_protocol_agrees ~name:"cached world = lazy world"
      {
        agree =
          (fun ?link_capacity ?churn ~p ~seed graph protocol start ->
            (* Cached worlds slice [neighbors] from CSR rows, lazy ones
               call the graph's closure: states, counters and probe
               events must agree. *)
            let run cache =
              let w = P.World.create ~cache graph ~p ~seed in
              assert (P.World.cached w = cache);
              observe ?link_capacity ?churn ~rounds:40 w protocol start
            in
            run true = run false);
      };
    every_protocol_agrees ~name:"active-set schedule = stepping every node"
      {
        agree =
          (fun ?link_capacity ?churn ~p ~seed graph protocol start ->
            same_as_stepping_every_node ?link_capacity ?churn ~rounds:40
              (P.World.create graph ~p ~seed) protocol start);
      };
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          case "round counting" test_engine_round_counting;
          case "probe accounting" test_engine_distinct_probe_accounting;
          case "injection" test_engine_injection_and_delivery;
          case "loss on closed links" test_engine_message_loss_on_closed_links;
          case "determinism" test_engine_determinism;
        ] );
      ( "flood",
        [
          case "full world = BFS" test_flood_full_world_is_bfs;
          case "latency = chemical distance" test_flood_latency_equals_chemical_distance;
          case "informed = cluster" test_flood_informed_count_is_cluster_size;
          case "message cost" test_flood_message_cost;
        ] );
      ( "gossip",
        [
          case "spreads" test_gossip_spreads_on_full_world;
          case "respects components" test_gossip_respects_components;
        ] );
      ( "greedy forward",
        [
          case "full world direct" test_greedy_full_world_direct;
          case "fails cleanly" test_greedy_fails_cleanly;
          case "probe cost" test_greedy_probe_cost_bounded;
        ] );
      ( "random walk",
        [
          case "reaches target" test_walk_reaches_target_full_world;
          case "holds through closed links" test_walk_holds_through_closed_links;
          case "visits accounting" test_walk_visits_accounting;
        ] );
      ( "link capacity",
        [
          case "serialises a chain" test_capacity_serialises_chain;
          case "preserves messages" test_capacity_preserves_messages;
          case "invalid" test_capacity_invalid;
        ] );
      ( "butterfly routing",
        [
          case "full world delivers all" test_butterfly_full_world_delivers_all;
          case "conservation under faults" test_butterfly_conservation_under_faults;
          case "capacity only delays" test_butterfly_capacity_only_delays;
        ] );
      ( "edge guards",
        [
          case "non-neighbour probe raises" test_probe_non_neighbour_raises;
          case "non-neighbour send raises" test_send_non_neighbour_raises;
          case "inject delivers at round 1" test_inject_delivers_at_round_one;
          case "inject out of range raises" test_inject_out_of_range_raises;
        ] );
      ( "scheduling",
        [
          case "idle steps are no-ops" test_idle_steps_are_no_ops;
          case "ascending order" test_woken_nodes_step_in_ascending_order;
        ] );
      ( "churn",
        [
          case "spec parsing" test_churn_spec_parsing;
          case "every link starts up" test_churn_every_link_starts_up;
          case "zero fail never fires" test_churn_zero_fail_never_fires;
          case "query order irrelevant" test_churn_query_order_irrelevant;
          case "negative edge rejected" test_churn_negative_edge_rejected;
          case "blocked accounting" test_churn_blocked_accounting;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
