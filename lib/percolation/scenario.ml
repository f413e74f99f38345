(* Fault sets — i.i.d., spatially clustered or worst-case — sized
   against an exact edge budget. Every model answers the same question
   — "which [k] edges die?" — so experiments can compare fault
   geometries at strictly equal budget; the sets overlay onto a world
   through the ordinary removal mechanism ([World.remove_edges]),
   leaving oracles, reveals, caches, claims and traces untouched. *)

type model =
  | Random
  | Ball of { centers : int }
  | Infection
  | Blast of { decay : float }
  | Around of { vertex : int }
  | Min_cut of { source : int; target : int }

let model_name = function
  | Random -> "random"
  | Ball { centers } -> Printf.sprintf "ball:%d" centers
  | Infection -> "infection"
  | Blast { decay } -> Printf.sprintf "blast:%.17g" decay
  | Around { vertex } -> Printf.sprintf "around:%d" vertex
  | Min_cut { source; target } -> Printf.sprintf "min-cut:%d-%d" source target

let validate_model graph model =
  let in_range v = v >= 0 && v < graph.Topology.Graph.vertex_count in
  match model with
  | Random | Infection -> ()
  | Ball { centers } ->
      if centers < 1 then invalid_arg "Scenario: ball needs >= 1 center"
  | Blast { decay } ->
      if not (Float.is_finite decay) || decay <= 0.0 || decay > 1.0 then
        invalid_arg "Scenario: blast decay must be in (0, 1]"
  | Around { vertex } ->
      if not (in_range vertex) then
        invalid_arg "Scenario: around vertex out of range"
  | Min_cut { source; target } ->
      if not (in_range source && in_range target) then
        invalid_arg "Scenario: min-cut endpoint out of range";
      if source = target then
        invalid_arg "Scenario: min-cut needs two distinct endpoints"

(* BFS distances from [source] over the full (un-percolated) graph;
   -1 marks unreachable vertices. *)
let bfs_distances graph source =
  let n = graph.Topology.Graph.vertex_count in
  let dist = Array.make n (-1) in
  dist.(source) <- 0;
  let queue = Queue.create () in
  Queue.push source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v queue
        end)
      (graph.Topology.Graph.neighbors u)
  done;
  dist

(* Distinct random vertices (all of them when [count >= n]). *)
let random_vertices stream graph count =
  let n = graph.Topology.Graph.vertex_count in
  let vertices = Array.init n Fun.id in
  Prng.Stream.shuffle_in_place stream vertices;
  Array.to_list (Array.sub vertices 0 (min count n))

(* Edges incident to the BFS ball around [center], in discovery order,
   at most [limit] of them. *)
let ball_edges graph center ~limit =
  let seen_vertices = Hashtbl.create 64 in
  Hashtbl.replace seen_vertices center ();
  let seen_edges = Hashtbl.create 64 in
  let queue = Queue.create () in
  Queue.push center queue;
  let chosen = ref [] in
  let count = ref 0 in
  (try
     if limit <= 0 then raise Exit;
     while not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       Array.iter
         (fun v ->
           let id = graph.Topology.Graph.edge_id u v in
           if not (Hashtbl.mem seen_edges id) then begin
             Hashtbl.replace seen_edges id ();
             chosen := (u, v) :: !chosen;
             incr count;
             if !count >= limit then raise Exit
           end;
           if not (Hashtbl.mem seen_vertices v) then begin
             Hashtbl.replace seen_vertices v ();
             Queue.push v queue
           end)
         (graph.Topology.Graph.neighbors u)
     done
   with Exit -> ());
  List.rev !chosen

(* Balls around [centers] random seeds, budget shared round-robin so
   every cluster grows at the same rate. *)
let sample_balls stream graph ~centers ~budget =
  let seeds = random_vertices stream graph centers in
  let rings =
    List.map (fun c -> Array.of_list (ball_edges graph c ~limit:budget)) seeds
  in
  let cursors = List.map (fun ring -> (ring, ref 0)) rings in
  let seen = Hashtbl.create 64 in
  let chosen = ref [] in
  let count = ref 0 in
  let progressed = ref true in
  while !count < budget && !progressed do
    progressed := false;
    List.iter
      (fun (ring, cursor) ->
        if !count < budget && !cursor < Array.length ring then begin
          let u, v = ring.(!cursor) in
          incr cursor;
          progressed := true;
          let id = graph.Topology.Graph.edge_id u v in
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.replace seen id ();
            chosen := (u, v) :: !chosen;
            incr count
          end
        end)
      cursors
  done;
  List.rev !chosen

(* Eden growth on edges: infect a random seed edge, then repeatedly
   kill a uniform edge from the frontier (edges touching an infected
   vertex), infecting its endpoints — one connected blob of faults. *)
let sample_infection stream graph edges ~budget =
  if Array.length edges = 0 || budget = 0 then []
  else begin
    let tracked = Hashtbl.create 64 in
    (* edge id -> in frontier or already chosen *)
    let infected = Hashtbl.create 64 in
    let frontier = ref [||] in
    let frontier_len = ref 0 in
    let push edge =
      if !frontier_len = Array.length !frontier then begin
        let grown = Array.make (max 8 (2 * !frontier_len)) (0, 0) in
        Array.blit !frontier 0 grown 0 !frontier_len;
        frontier := grown
      end;
      !frontier.(!frontier_len) <- edge;
      incr frontier_len
    in
    let infect u =
      if not (Hashtbl.mem infected u) then begin
        Hashtbl.replace infected u ();
        Array.iter
          (fun v ->
            let id = graph.Topology.Graph.edge_id u v in
            if not (Hashtbl.mem tracked id) then begin
              Hashtbl.replace tracked id ();
              push (u, v)
            end)
          (graph.Topology.Graph.neighbors u)
      end
    in
    let u0, v0 = Prng.Stream.pick stream edges in
    Hashtbl.replace tracked (graph.Topology.Graph.edge_id u0 v0) ();
    let chosen = ref [ (u0, v0) ] in
    let count = ref 1 in
    infect u0;
    infect v0;
    while !count < budget && !frontier_len > 0 do
      let i = Prng.Stream.int_in stream !frontier_len in
      let ((u, v) as edge) = !frontier.(i) in
      !frontier.(i) <- !frontier.(!frontier_len - 1);
      decr frontier_len;
      chosen := edge :: !chosen;
      incr count;
      infect u;
      infect v
    done;
    List.rev !chosen
  end

(* Correlated blast: one epicenter, each edge weighted by
   [decay^distance] of its nearer endpoint; weighted sampling without
   replacement. Unreachable edges get weight 0 (padding covers them
   when the graph is disconnected). *)
let sample_blast stream graph edges ~decay ~budget =
  let m = Array.length edges in
  if m = 0 || budget = 0 then []
  else begin
    let center = Prng.Stream.int_in stream graph.Topology.Graph.vertex_count in
    let dist = bfs_distances graph center in
    let weights =
      Array.map
        (fun (u, v) ->
          let du = dist.(u) and dv = dist.(v) in
          if du < 0 && dv < 0 then 0.0
          else
            let d = if du < 0 then dv else if dv < 0 then du else min du dv in
            decay ** float_of_int d)
        edges
    in
    let chosen = ref [] in
    let count = ref 0 in
    let continue = ref true in
    while !count < budget && !continue do
      let total = Array.fold_left ( +. ) 0.0 weights in
      if total <= 0.0 then continue := false
      else begin
        let x = Prng.Stream.float_unit stream *. total in
        let acc = ref 0.0 in
        let picked = ref (-1) in
        (try
           for i = 0 to m - 1 do
             acc := !acc +. weights.(i);
             if weights.(i) > 0.0 && !acc > x then begin
               picked := i;
               raise Exit
             end
           done
         with Exit -> ());
        (* Float round-off can leave the scan short of [x]; fall back
           to the last positive-weight edge. *)
        if !picked < 0 then
          for i = m - 1 downto 0 do
            if !picked < 0 && weights.(i) > 0.0 then picked := i
          done;
        if !picked < 0 then continue := false
        else begin
          chosen := edges.(!picked) :: !chosen;
          incr count;
          weights.(!picked) <- 0.0
        end
      end
    done;
    List.rev !chosen
  end

let dedupe graph edges =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (u, v) ->
      let id = graph.Topology.Graph.edge_id u v in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.replace seen id ();
        true
      end)
    edges

(* Padding over the prepared edge array: [edges] is [edge_list graph]
   in order, so [rest] lists the unchosen edges in [edge_list] order
   before the shuffle permutes them. *)
let pad stream graph edges ~budget raw =
  let target = min budget (Array.length edges) in
  let raw = dedupe graph raw in
  let chosen = Hashtbl.create 64 in
  let kept = ref [] in
  let count = ref 0 in
  List.iter
    (fun (u, v) ->
      if !count < target then begin
        Hashtbl.replace chosen (graph.Topology.Graph.edge_id u v) ();
        kept := (u, v) :: !kept;
        incr count
      end)
    raw;
  if !count < target then begin
    let rest =
      Array.of_seq
        (Seq.filter
           (fun (u, v) -> not (Hashtbl.mem chosen (graph.Topology.Graph.edge_id u v)))
           (Array.to_seq edges))
    in
    Prng.Stream.shuffle_in_place stream rest;
    Array.iter
      (fun (u, v) ->
        if !count < target then begin
          kept := (u, v) :: !kept;
          incr count
        end)
      rest
  end;
  List.rev !kept

let pad_to_budget stream graph ~budget edges =
  if budget < 0 then invalid_arg "Scenario.pad_to_budget: negative budget";
  pad stream graph (Array.of_list (Topology.Graph.edge_list graph)) ~budget edges

(* Everything a draw reads that depends only on the graph and the
   model is built here, once: the edge array (padding, infection and
   blast enumerate it) and a min-cut model's cut. *)
let sampler graph model =
  validate_model graph model;
  let edges = Array.of_list (Topology.Graph.edge_list graph) in
  let cut =
    match model with
    | Min_cut { source; target } -> Topology.Mincut.min_cut graph ~source ~sink:target
    | Random | Ball _ | Infection | Blast _ | Around _ -> []
  in
  fun stream ~budget ->
    if budget < 0 then invalid_arg "Scenario.sampler: negative budget";
    let draw () =
      let raw =
        match model with
        | Random -> []
        | Ball { centers } -> sample_balls stream graph ~centers ~budget
        | Infection -> sample_infection stream graph edges ~budget
        | Blast { decay } -> sample_blast stream graph edges ~decay ~budget
        | Around { vertex } -> ball_edges graph vertex ~limit:budget
        | Min_cut _ -> cut
      in
      (* Random is pure padding; the clustered models fall back to
         random padding only in degenerate graphs, and a min cut
         smaller than the budget is topped up once the pair is already
         cut, keeping the budget exact. *)
      pad stream graph edges ~budget raw
    in
    if Obs.Timing.on () then Obs.Timing.span "scenario.sample" draw else draw ()
