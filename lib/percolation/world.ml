(* Cached worlds carry their coins eagerly: one sequential
   [Prng.Coin.bernoulli_fill] sweep at construction writes the whole
   edge-coin bitset (and the vertex-survival bitset under site
   percolation), so every later [is_open] is a bit test. On top of the
   coins sits a lazily materialised CSR of open-adjacency rows in one
   growing int arena — rows are cut from the graph's shared
   {!Topology.Csr} structure on first query, so no query path ever
   calls a topology's [neighbors] closure more than once per vertex per
   world. Memoisation is invisible: both representations evaluate the
   same pure coin function. *)
type site_cache = { v_alive : Bytes.t }

type cache = {
  e_coin : Bytes.t;
      (* Bit per edge id: the bare edge coin (endpoint survival and
         removal overlays are applied on top at query time). Filled
         eagerly at construction. *)
  csr : Topology.Csr.t;  (* shared, graph-owned adjacency *)
  rows : int array;
      (* Interleaved per-vertex row metadata: [rows.(2v)] is the offset
         of [v]'s open-adjacency row in [arena] (-1 = not yet
         materialised), [rows.(2v + 1)] its length. Interleaving keeps
         offset and length on one cache line — the lookup is a random
         access per BFS vertex expansion. *)
  mutable arena : int array;
      (* Open-neighbor targets, rows appended in first-query order.
         Growth replaces the array (never mutates filled rows), so an
         iterator holding a stale reference still reads correct data. *)
  mutable arena_used : int;
  site : site_cache option;
}

type t = {
  graph : Topology.Graph.t;
  p : float;
  seed : int64;
  removed : (int, unit) Hashtbl.t option;
  site_p : float option;
  cache : cache option;
}

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bitset bits = Bytes.make ((bits + 7) / 8) '\000'

(* Distinct seed namespace for vertex coins, so site and bond states are
   independent even though vertex and edge ids overlap. *)
let site_seed seed = Prng.Coin.derive seed 0x5173

let cache_gate = 1 lsl 21

let check_probabilities ~who ~p ~site_p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "World.%s: p outside [0,1]" who);
  match site_p with
  | Some sp when not (sp >= 0.0 && sp <= 1.0) ->
      invalid_arg (Printf.sprintf "World.%s: site_p outside [0,1]" who)
  | Some _ | None -> ()

let fits_gate graph =
  graph.Topology.Graph.edge_id_bound <= cache_gate
  && graph.Topology.Graph.vertex_count <= cache_gate

(* Assemble a cache around an already filled edge-coin bitset. The
   arena starts at the vertex count and doubles; rows are appended on
   first query. *)
let make_cache graph ~e_coin ~site =
  let n = graph.Topology.Graph.vertex_count in
  {
    e_coin;
    csr = Topology.Csr.of_graph graph;
    rows = Array.make (2 * n) (-1);
    arena = Array.make (max 64 n) 0;
    arena_used = 0;
    site;
  }

let site_cache_of graph ~seed ~site_p =
  match site_p with
  | None -> None
  | Some sp ->
      let n = graph.Topology.Graph.vertex_count in
      let v_alive = bitset n in
      Prng.Coin.bernoulli_fill ~seed:(site_seed seed) ~p:sp v_alive ~count:n;
      Some { v_alive }

(* Construction (coin fill, CSR lookup, row and arena allocation) is the
   [world.build] span: the time a trial spends before its first probe. *)
let timed_build build =
  if Obs.Timing.on () then Obs.Timing.span "world.build" build else build ()

let create ?site_p ?(cache = true) graph ~p ~seed =
  check_probabilities ~who:"create" ~p ~site_p;
  let build () =
    if cache && fits_gate graph then begin
      let e_coin = bitset graph.Topology.Graph.edge_id_bound in
      Prng.Coin.bernoulli_fill ~seed ~p e_coin
        ~count:graph.Topology.Graph.edge_id_bound;
      Some (make_cache graph ~e_coin ~site:(site_cache_of graph ~seed ~site_p))
    end
    else None
  in
  { graph; p; seed; removed = None; site_p; cache = timed_build build }

let of_uniforms ?site_uniforms ?site_p graph ~p ~seed ~uniforms =
  check_probabilities ~who:"of_uniforms" ~p ~site_p;
  if not (fits_gate graph) then
    invalid_arg "World.of_uniforms: graph exceeds the cache gate";
  if Array.length uniforms <> graph.Topology.Graph.edge_id_bound then
    invalid_arg "World.of_uniforms: need one uniform per edge id";
  let n = graph.Topology.Graph.vertex_count in
  let bit_set b i =
    let j = i lsr 3 in
    Bytes.unsafe_set b j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))
  in
  let build () =
    let e_coin = bitset graph.Topology.Graph.edge_id_bound in
    Array.iteri (fun id u -> if u < p then bit_set e_coin id) uniforms;
    let site =
      match (site_p, site_uniforms) with
      | None, _ -> None
      | Some sp, Some su ->
          if Array.length su <> n then
            invalid_arg "World.of_uniforms: need one site uniform per vertex";
          let v_alive = bitset n in
          Array.iteri (fun v u -> if u < sp then bit_set v_alive v) su;
          Some { v_alive }
      | Some _, None -> site_cache_of graph ~seed ~site_p
    in
    Some (make_cache graph ~e_coin ~site)
  in
  { graph; p; seed; removed = None; site_p; cache = timed_build build }

let cached t = t.cache <> None
let graph t = t.graph
let p t = t.p
let seed t = t.seed
let site_p t = t.site_p

(* The coin cache is a pure function of the seed, so a removal overlay
   keeps sharing it: [is_open] applies the overlay on top. *)
let remove_edges t edges =
  let removed =
    match t.removed with
    | None -> Hashtbl.create (2 * List.length edges)
    | Some existing -> Hashtbl.copy existing
  in
  List.iter
    (fun (u, v) -> Hashtbl.replace removed (t.graph.Topology.Graph.edge_id u v) ())
    edges;
  { t with removed = Some removed }

let removed_count t =
  match t.removed with None -> 0 | Some removed -> Hashtbl.length removed

let alive_in_cache c v =
  match c.site with None -> true | Some sc -> bit_get sc.v_alive v

let vertex_alive_coin t v =
  match t.site_p with
  | None -> true
  | Some sp -> (
      match t.cache with
      | Some c -> alive_in_cache c v
      | None -> Prng.Coin.bernoulli ~seed:(site_seed t.seed) ~p:sp v)

let vertex_alive t v =
  Topology.Graph.check_vertex t.graph v;
  vertex_alive_coin t v

(* Edge state ignoring adversarial removals: both endpoints alive and
   the edge coin succeeds — a pure function of (seed, u, v, id). On the
   cached path all three facts are pre-computed bits. *)
let coin_open t u v id =
  match t.cache with
  | Some c -> bit_get c.e_coin id && alive_in_cache c u && alive_in_cache c v
  | None ->
      vertex_alive t u && vertex_alive t v
      && Prng.Coin.bernoulli ~seed:t.seed ~p:t.p id

let is_open_id t u v ~id =
  (match t.removed with
  | Some removed -> not (Hashtbl.mem removed id)
  | None -> true)
  && coin_open t u v id

let is_open t u v = is_open_id t u v ~id:(t.graph.Topology.Graph.edge_id u v)

(* Materialise the coin-open row of [v] (no removal overlay applied) by
   scanning the shared CSR with bit tests — no closure calls, no
   allocation beyond amortised arena growth. Returns the row offset. *)
let fill_row c v =
  let csr = c.csr in
  let lo = csr.Topology.Csr.xadj.(v) and hi = csr.Topology.Csr.xadj.(v + 1) in
  let needed = hi - lo in
  if c.arena_used + needed > Array.length c.arena then begin
    let grown =
      Array.make (max (2 * Array.length c.arena) (c.arena_used + needed)) 0
    in
    Array.blit c.arena 0 grown 0 c.arena_used;
    c.arena <- grown
  end;
  let start = c.arena_used in
  let k = ref start in
  if alive_in_cache c v then begin
    let targets = csr.Topology.Csr.targets
    and edge_ids = csr.Topology.Csr.edge_ids
    and arena = c.arena in
    for i = lo to hi - 1 do
      let w = Array.unsafe_get targets i in
      if bit_get c.e_coin (Array.unsafe_get edge_ids i) && alive_in_cache c w
      then begin
        Array.unsafe_set arena !k w;
        incr k
      end
    done
  end;
  c.arena_used <- !k;
  c.rows.((2 * v) + 1) <- !k - start;
  c.rows.(2 * v) <- start;
  start

let row_start c v =
  let start = c.rows.(2 * v) in
  if start >= 0 then start else fill_row c v

let edge_removed t v w =
  match t.removed with
  | None -> false
  | Some removed -> Hashtbl.mem removed (t.graph.Topology.Graph.edge_id v w)

(* Filter a fresh, caller-owned array in place — no intermediate list on
   either path. Cached worlds cut the memoised coin-open row (only the
   removal overlay left to check); lazy worlds filter the raw neighbor
   array — which the freshness contract of {!Topology.Graph.t} lets us
   own — through the coin. *)
let open_neighbors t v =
  match t.cache with
  | Some c ->
      let start = row_start c v in
      let len = c.rows.((2 * v) + 1) in
      if t.removed = None then Array.sub c.arena start len
      else begin
        let arena = c.arena in
        let out = Array.make len 0 in
        let k = ref 0 in
        for i = start to start + len - 1 do
          let w = Array.unsafe_get arena i in
          if not (edge_removed t v w) then begin
            Array.unsafe_set out !k w;
            incr k
          end
        done;
        if !k = len then out else Array.sub out 0 !k
      end
  | None ->
      let nbrs = t.graph.Topology.Graph.neighbors v in
      let n = Array.length nbrs in
      let k = ref 0 in
      for i = 0 to n - 1 do
        let w = Array.unsafe_get nbrs i in
        if is_open t v w then begin
          Array.unsafe_set nbrs !k w;
          incr k
        end
      done;
      if !k = n then nbrs else Array.sub nbrs 0 !k

let iter_open_neighbors t v f =
  match t.cache with
  | Some c ->
      let start = row_start c v in
      let len = c.rows.((2 * v) + 1) in
      (* Capture the arena after the row is in place: [f] may fill more
         rows and grow (replace) the arena, but the captured array keeps
         this row intact. *)
      let arena = c.arena in
      if t.removed = None then
        for i = start to start + len - 1 do
          f (Array.unsafe_get arena i)
        done
      else
        for i = start to start + len - 1 do
          let w = Array.unsafe_get arena i in
          if not (edge_removed t v w) then f w
        done
  | None ->
      let nbrs = t.graph.Topology.Graph.neighbors v in
      for i = 0 to Array.length nbrs - 1 do
        let w = Array.unsafe_get nbrs i in
        if is_open t v w then f w
      done

(* Coins and site bits are eager, so only the open-adjacency rows are
   left to force. After this no query path writes to the cache (every
   [row_start] slot is set), so the world can be read concurrently from
   any number of domains. Worlds above the cache gate have no cache to
   force — their queries re-evaluate the pure coin function and are
   already write-free. *)
let prefill t =
  match t.cache with
  | None -> ()
  | Some c ->
      for v = 0 to t.graph.Topology.Graph.vertex_count - 1 do
        ignore (row_start c v)
      done

(* Narrow read-only views of the cache for hot loops in the same
   library ({!Oracle}, {!Reveal}): a cross-module call per edge or per
   neighbor is measurable at kernel scale, and these make the inner
   loops straight-line array/bit code. Both return [None] whenever the
   single-bit / raw-row reading would be wrong (lazy world, removal
   overlay, site percolation for the bit view), so callers always have
   the general path as fallback. *)
let raw_open_bits t =
  match t.cache with
  | Some c when t.removed = None && c.site = None -> Some c.e_coin
  | Some _ | None -> None

let adjacency_view t =
  match t.cache with
  | Some c when t.removed = None -> Some (c.rows, c.arena)
  | Some _ | None -> None

let ensure_row t v =
  match t.cache with None -> () | Some c -> ignore (row_start c v)

let open_degree t v =
  let count = ref 0 in
  iter_open_neighbors t v (fun _ -> incr count);
  !count

let count_open_edges t =
  let count = ref 0 in
  Topology.Graph.iter_edges t.graph (fun u v -> if is_open t u v then incr count);
  !count
