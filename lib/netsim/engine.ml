type ('state, 'message) t = {
  world : Percolation.World.t;
  graph : Topology.Graph.t;
  csr : Topology.Csr.t option;
      (* cached worlds: a node's row is its [neighbors], sliced without
         the graph's closure. Lazy worlds keep the closure. *)
  protocol : ('state, 'message) Protocol.t;
  states : 'state array;
  link_capacity : int option;
      (* max deliveries per directed link per round; None = unbounded *)
  churn : Churn.state option;
      (* round-indexed up/down overlay on top of the percolation world *)
  mutable pending : (int * 'message) list array;
      (* node -> inbox for the next round, newest first *)
  mutable spare : (int * 'message) list array; (* empty; swapped with [pending] *)
  mutable pending_count : int;
  mutable wake : int list;
      (* nodes to step next round, unordered: those with mail or not idle.
         Any other node is idle with no mail, so its step changes nothing. *)
  woken : Bytes.t; (* node -> '\001' iff it is in [wake] *)
  queued : (int * int, 'message Queue.t) Hashtbl.t;
      (* directed link (u,v) -> store-and-forward backlog, used only
         when link_capacity is set *)
  mutable queued_count : int;
  probed : (int, unit) Hashtbl.t; (* distinct probed edge ids *)
  node_streams : (int, Prng.Stream.t) Hashtbl.t;
  stream_seed : int64;
  metrics : Metrics.t;
  mutable round : int;
  mutable node : int; (* the node stepping now, whose calls [api] makes *)
  api_probe : int -> bool;
  api_send : int -> 'message -> unit;
  api_random_int : int -> int;
}

let wake t node =
  if Bytes.get t.woken node = '\000' then begin
    Bytes.set t.woken node '\001';
    t.wake <- node :: t.wake
  end

let node_stream t node =
  match Hashtbl.find_opt t.node_streams node with
  | Some stream -> stream
  | None ->
      let stream = Prng.Stream.create (Prng.Coin.derive t.stream_seed node) in
      Hashtbl.replace t.node_streams node stream;
      stream

(* Up at this round per the churn overlay (vacuously true unchurned).
   Percolation-openness is checked separately by the callers. *)
let churn_up t ~edge =
  match t.churn with
  | None -> true
  | Some state -> Churn.link_up state ~edge ~round:t.round

let queue_delivery t ~node ~sender message =
  t.pending.(node) <- (sender, message) :: t.pending.(node);
  t.pending_count <- t.pending_count + 1;
  wake t node

(* Under a capacity limit, a send enters the directed link's backlog;
   the drain phase below moves up to [capacity] messages per link per
   round into the next round's inboxes. *)
let enqueue_on_link t ~sender ~receiver message =
  let key = (sender, receiver) in
  let backlog =
    match Hashtbl.find_opt t.queued key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queued key q;
        q
  in
  Queue.push message backlog;
  t.queued_count <- t.queued_count + 1

let drain_links t capacity =
  Hashtbl.iter
    (fun (sender, receiver) backlog ->
      (* A churned-down link holds its backlog (store-and-forward
         waits for repair); nothing is lost, so no blocked tick. *)
      if churn_up t ~edge:(t.graph.Topology.Graph.edge_id sender receiver) then begin
        let moved = ref 0 in
        while !moved < capacity && not (Queue.is_empty backlog) do
          let message = Queue.pop backlog in
          t.queued_count <- t.queued_count - 1;
          Metrics.tick_delivered t.metrics;
          queue_delivery t ~node:receiver ~sender message;
          incr moved
        done
      end)
    t.queued

(* [probe] and [send] resolve the edge once: [edge_id] raises
   [Not_an_edge] for a non-neighbour, and its id serves the coin and
   the churn overlay alike. *)
let probe t v =
  let node = t.node in
  let id = t.graph.Topology.Graph.edge_id node v in
  Metrics.tick_raw_probe t.metrics;
  let fresh = not (Hashtbl.mem t.probed id) in
  if fresh then begin
    Hashtbl.replace t.probed id ();
    Metrics.tick_distinct_probe t.metrics
  end;
  let open_ =
    Percolation.World.is_open_id t.world node v ~id && churn_up t ~edge:id
  in
  if Obs.Trace.on () then
    Obs.Trace.emit (Obs.Trace.Probe { u = node; v; open_; fresh });
  open_

(* Validates adjacency; delivery depends on the percolated state but the
   sender learns nothing from the call. *)
let send t v message =
  let node = t.node in
  let id = t.graph.Topology.Graph.edge_id node v in
  Metrics.tick_sent t.metrics;
  if Percolation.World.is_open_id t.world node v ~id then begin
    if churn_up t ~edge:id then
      match t.link_capacity with
      | None ->
          Metrics.tick_delivered t.metrics;
          queue_delivery t ~node:v ~sender:node message
      | Some _ -> enqueue_on_link t ~sender:node ~receiver:v message
    else Metrics.tick_churn_blocked t.metrics
  end

let create ?seed ?link_capacity ?churn world protocol =
  (match link_capacity with
  | Some c when c < 1 -> invalid_arg "Engine.create: link capacity must be >= 1"
  | Some _ | None -> ());
  let graph = Percolation.World.graph world in
  let n = graph.Topology.Graph.vertex_count in
  let stream_seed =
    match seed with
    | Some s -> s
    | None -> Prng.Coin.derive (Percolation.World.seed world) 0x51
  in
  (* The api closures are built here, once: each reads the stepping
     node from [t]. *)
  let rec t = {
    world;
    graph;
    csr =
      (if Percolation.World.cached world then Some (Topology.Csr.of_graph graph)
       else None);
    protocol;
    states = Array.init n (fun node -> protocol.Protocol.init ~node);
    link_capacity;
    churn =
      Option.map
        (fun plan ->
          Churn.instantiate plan ~world_seed:(Percolation.World.seed world))
        churn;
    pending = Array.make n [];
    spare = Array.make n [];
    pending_count = 0;
    wake = [];
    woken = Bytes.make n '\000';
    queued = Hashtbl.create 64;
    queued_count = 0;
    probed = Hashtbl.create 256;
    node_streams = Hashtbl.create 64;
    stream_seed;
    metrics = Metrics.create ();
    round = 0;
    node = 0;
    api_probe = (fun v -> probe t v);
    api_send = (fun v message -> send t v message);
    api_random_int =
      (fun bound -> Prng.Stream.int_in (node_stream t t.node) bound);
  } in
  Array.iteri (fun node s -> if not (protocol.Protocol.idle s) then wake t node) t.states;
  t

let world t = t.world
let churned t = Option.is_some t.churn
let protocol_name t = t.protocol.Protocol.name
let round t = t.round
let metrics t = t.metrics
let state t node = t.states.(node)
let in_flight t = t.pending_count + t.queued_count

let inject t ~node ~sender message =
  Topology.Graph.check_vertex t.graph node;
  queue_delivery t ~node ~sender message

(* Only woken nodes step, in ascending order: inboxes and trace/v1 probe
   events come out in the order stepping every node would give. *)
let run_round t =
  let inboxes = t.pending in
  t.pending <- t.spare;
  t.spare <- inboxes;
  t.pending_count <- 0;
  let active = Array.of_list t.wake in
  Array.sort Int.compare active;
  Array.iter (fun node -> Bytes.set t.woken node '\000') active;
  t.wake <- [];
  t.round <- t.round + 1;
  Metrics.tick_round t.metrics;
  for i = 0 to Array.length active - 1 do
    let node = active.(i) in
    t.node <- node;
    let neighbors =
      match t.csr with
      | Some csr ->
          let lo = csr.Topology.Csr.xadj.(node) in
          Array.sub csr.Topology.Csr.targets lo (csr.Topology.Csr.xadj.(node + 1) - lo)
      | None -> t.graph.Topology.Graph.neighbors node
    in
    let api =
      {
        Api.node;
        round = t.round;
        neighbors;
        probe = t.api_probe;
        send = t.api_send;
        random_int = t.api_random_int;
      }
    in
    let inbox = List.rev inboxes.(node) in
    inboxes.(node) <- [];
    let state = t.protocol.Protocol.step api t.states.(node) inbox in
    t.states.(node) <- state;
    if not (t.protocol.Protocol.idle state) then wake t node
  done;
  match t.link_capacity with
  | Some capacity -> drain_links t capacity
  | None -> ()

(* With nothing in flight, [wake] holds exactly the nodes that are not idle. *)
let quiescent t = in_flight t = 0 && t.wake = []

(* Profiling only: a whole simulation, every round of it, is the
   [netsim.run] span. *)
let run ?(max_rounds = 10_000) ~until t =
  let rec loop () =
    if until t then `Stopped t.round
    else if t.round >= max_rounds then `Out_of_rounds
    else begin
      run_round t;
      if until t then `Stopped t.round
      else if quiescent t then `Quiescent t.round
      else loop ()
    end
  in
  if Obs.Timing.on () then Obs.Timing.span "netsim.run" loop else loop ()

let fold_states t ~init ~f =
  let acc = ref init in
  Array.iteri (fun node state -> acc := f !acc node state) t.states;
  !acc
