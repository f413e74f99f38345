(* Cached worlds carry their coins eagerly: one sequential
   [Prng.Coin.bernoulli_fill] sweep at construction writes the whole
   edge-coin bitset (and the vertex-survival bitset under site
   percolation), so every later [is_open] is a bit test. Adjacency
   queries scan the graph's own {!Topology.Csr} rows with those bit
   tests, so a one-shot trial world allocates nothing per vertex and
   never writes after construction. Only [prefill] cuts exact-size
   open rows, once, for resident worlds whose many queries repay the
   cut; [Reveal]'s BFS is their one reader. Memoisation is invisible:
   both representations evaluate the same pure coin function. *)
type cache = {
  e_coin : Bytes.t;
      (* Bit per edge id: the bare edge coin (endpoint survival and
         removal overlays are applied on top at query time). *)
  v_alive : Bytes.t option;  (* Bit per vertex, under site percolation. *)
  csr : Topology.Csr.t;  (* shared, graph-owned adjacency *)
  mutable open_rows : (int array * int array) option;
      (* Set once, by [prefill]: offsets (length [vertex_count + 1]) and
         targets of every vertex's coin-open row, in CSR order. Read
         only through [rows]. *)
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

(* Distinct seed namespace for vertex coins, so site and bond states are
   independent even though vertex and edge ids overlap. *)
let site_seed seed = Prng.Coin.derive seed 0x5173

let cache_gate = 1 lsl 21

(* A bitset over [count] ids with bit [id] set iff
   [Prng.Coin.bernoulli ~seed ~p id]. *)
let coin_bits ~seed ~p count =
  let bits = Bytes.make ((count + 7) / 8) '\000' in
  Prng.Coin.bernoulli_fill ~seed ~p bits ~count;
  bits

(* Construction (coin fill, and the CSR fill on a graph's first world)
   is the [world.build] span: the time a trial spends before its first
   probe. The graph's CSR is the only adjacency a fresh world carries. *)
let create ?site_p ?(cache = true) graph ~p ~seed =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "World.create: p outside [0,1]";
  (match site_p with
  | Some sp when not (sp >= 0.0 && sp <= 1.0) ->
      invalid_arg "World.create: site_p outside [0,1]"
  | Some _ | None -> ());
  let { Topology.Graph.edge_id_bound; vertex_count; _ } = graph in
  let build () =
    if cache && edge_id_bound <= cache_gate && vertex_count <= cache_gate then begin
      let e_coin = coin_bits ~seed ~p edge_id_bound in
      let v_alive =
        Option.map (fun sp -> coin_bits ~seed:(site_seed seed) ~p:sp vertex_count) site_p
      in
      Some { e_coin; v_alive; csr = Topology.Csr.of_graph graph; open_rows = None }
    end
    else None
  in
  let cache = if Obs.Timing.on () then Obs.Timing.span "world.build" build else build () in
  { graph; p; seed; removed = None; site_p; cache }

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
  match c.v_alive with None -> true | Some bits -> bit_get bits v

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

let id_removed t id =
  match t.removed with None -> false | Some removed -> Hashtbl.mem removed id

let is_open_id t u v ~id = (not (id_removed t id)) && coin_open t u v id
let is_open t u v = is_open_id t u v ~id:(t.graph.Topology.Graph.edge_id u v)

(* Whether a CSR slot holding edge [id] to [w] is coin-open, given that
   the row's own vertex is alive. *)
let[@inline] slot_open c id w = bit_get c.e_coin id && alive_in_cache c w

(* Open neighbours in CSR row order, which is the graph's [neighbors]
   order. Cached worlds test each slot's coin bit, reading the removal
   overlay by the slot's edge id; lazy worlds filter a fresh
   [neighbors] array through the coin. *)
let iter_open_neighbors t v f =
  match t.cache with
  | Some c ->
      let { Topology.Csr.xadj; targets; edge_ids } = c.csr in
      let lo = xadj.(v) and hi = xadj.(v + 1) in
      if alive_in_cache c v then
        for i = lo to hi - 1 do
          let id = Array.unsafe_get edge_ids i and w = Array.unsafe_get targets i in
          if slot_open c id w && not (id_removed t id) then f w
        done
  | None ->
      let nbrs = t.graph.Topology.Graph.neighbors v in
      for i = 0 to Array.length nbrs - 1 do
        let w = Array.unsafe_get nbrs i in
        if is_open t v w then f w
      done

(* Fresh, caller-owned arrays on both paths. Lazy worlds filter the raw
   neighbor array in place — the freshness contract of
   {!Topology.Graph.t} lets us own it. *)
let open_neighbors t v =
  match t.cache with
  | Some c ->
      let xadj = c.csr.Topology.Csr.xadj in
      let out = Array.make (xadj.(v + 1) - xadj.(v)) 0 in
      let k = ref 0 in
      iter_open_neighbors t v (fun w ->
          Array.unsafe_set out !k w;
          incr k);
      if !k = Array.length out then out else Array.sub out 0 !k
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

(* One sweep over the CSR with bit tests, appending each row to a
   buffer, then one copy to exact size. The buffer starts at the
   expected open-slot count (a fraction p, times site_p squared when
   sites fail) plus four standard deviations, so it almost never
   doubles and is never much larger than the rows. The rows ignore any
   removal overlay: they are shared with every world derived from this
   one, and overlays read CSR slots instead. Lazy worlds and prefilled
   ones have nothing to cut. Only [Reveal]'s BFS reads the rows: on
   serve's resident worlds its reveal and cluster queries spend about
   40% less time there than on coin bits (DESIGN §8). *)
let prefill t =
  match t.cache with
  | None | Some { open_rows = Some _; _ } -> ()
  | Some c ->
      let { Topology.Csr.xadj; targets; edge_ids } = c.csr in
      let n = Array.length xadj - 1 in
      let offsets = Array.make (n + 1) 0 in
      let survive = match t.site_p with None -> 1.0 | Some sp -> sp *. sp in
      let expected = float_of_int (Array.length targets) *. t.p *. survive in
      let capacity =
        min (Array.length targets) (int_of_float (expected +. (4.0 *. sqrt expected)) + 64)
      in
      let row = ref (Array.make capacity 0) and k = ref 0 in
      for v = 0 to n - 1 do
        let lo = xadj.(v) and hi = xadj.(v + 1) in
        if !k + (hi - lo) > Array.length !row then begin
          let grown = Array.make (max (2 * Array.length !row) (!k + hi - lo)) 0 in
          Array.blit !row 0 grown 0 !k;
          row := grown
        end;
        let buffer = !row in
        if alive_in_cache c v then
          for i = lo to hi - 1 do
            let w = Array.unsafe_get targets i in
            if slot_open c (Array.unsafe_get edge_ids i) w then begin
              Array.unsafe_set buffer !k w;
              incr k
            end
          done;
        offsets.(v + 1) <- !k
      done;
      c.open_rows <- Some (offsets, Array.sub !row 0 !k)

(* Narrow read-only views of the cache for hot loops in the same
   library ({!Oracle}, {!Reveal}): a cross-module call per edge or per
   neighbor is measurable at kernel scale, and these make the inner
   loops straight-line array/bit code. Both return [None] whenever the
   raw reading would be wrong (lazy world, removal overlay, site
   percolation for the bit view), so callers always have the general
   path as fallback. *)
let raw_open_bits t =
  match t.cache with
  | Some c when t.removed = None && c.v_alive = None -> Some c.e_coin
  | Some _ | None -> None

type rows =
  | Prefilled of { offsets : int array; targets : int array }
  | Coins of { csr : Topology.Csr.t; coins : Bytes.t; alive : Bytes.t option }

let rows t =
  match t.cache with
  | Some { open_rows = Some (offsets, targets); _ } when t.removed = None ->
      Some (Prefilled { offsets; targets })
  | Some c when t.removed = None ->
      Some (Coins { csr = c.csr; coins = c.e_coin; alive = c.v_alive })
  | Some _ | None -> None

let open_degree t v =
  let count = ref 0 in
  iter_open_neighbors t v (fun _ -> incr count);
  !count

(* Each open edge once, as [(u, v)] with [u < v], in
   {!Topology.Graph.iter_edges} order: CSR rows are the graph's
   [neighbors] rows, so the cached scan visits the same pairs in the
   same order as the lazy one. *)
let iter_open_edges t f =
  match t.cache with
  | Some c ->
      let { Topology.Csr.xadj; targets; edge_ids } = c.csr in
      for u = 0 to Array.length xadj - 2 do
        if alive_in_cache c u then
          for i = xadj.(u) to xadj.(u + 1) - 1 do
            let w = Array.unsafe_get targets i and id = Array.unsafe_get edge_ids i in
            if u < w && slot_open c id w && not (id_removed t id) then f u w
          done
      done
  | None -> Topology.Graph.iter_edges t.graph (fun u v -> if is_open t u v then f u v)

let count_open_edges t =
  let count = ref 0 in
  iter_open_edges t (fun _ _ -> incr count);
  !count
