type policy = Local | Unrestricted

exception Locality_violation of int * int
exception Budget_exhausted

(* Probe memory and predecessor links come in two flavours, mirroring
   {!World}'s representations:

   - [Table]: Hashtbls, the reference path, used over lazy worlds
     (implicit graphs too large to index).
   - [Flat]: a 2-bit-per-edge-id bitset for probe memory and an int
     array over vertices for predecessor links, used over cached worlds
     (the world's size gate guarantees both fit). The probed flag and
     the memoised state share a byte, so the memo hit path — the bulk of
     a router's probes — touches exactly one cache line per probe.
     [pred.(v) = -1] means unreached; the source is its own predecessor,
     as in the Table path. [reached_rev] keeps the reached set
     enumerable without scanning the whole array. A store built by
     [with_scratch] lives in this domain's {!Scratch} slab instead of
     fresh arrays, and logs every fresh-probed id, so releasing it
     resets exactly the [pred] entries of [reached_rev] and the memo
     bytes of the logged ids.

   Both flavours implement the same counting and locality semantics;
   equivalence is property-tested.

   The records are named (not inline) so [probe] can dispatch on the
   flavour once and hand the bare record to a monomorphic hot path —
   the historical [probe] re-matched the store four to five times per
   call (find, add, two reached checks, predecessor update), which
   dominated the cached path's per-probe cost. *)
type table_store = {
  probed_tbl : (int, bool) Hashtbl.t; (* edge id -> state *)
  predecessor : (int, int) Hashtbl.t; (* reached vertex -> previous hop *)
}

type flat_store = {
  memo : Bytes.t;
      (* Two bits per edge id, packed four edges per byte: bit
         [2*(id mod 4)] = probed?, bit [2*(id mod 4) + 1] = memoised
         state. *)
  pred : int array; (* vertex -> predecessor, -1 = unreached *)
  coin_bits : Bytes.t option;
      (* {!World.raw_open_bits} snapshot: when present (cached bond
         world, no overlay), a fresh probe's answer is bit [id] — no
         world call at all. Worlds are immutable, so caching it at
         [create] is sound. *)
  mutable reached_rev : int list;
  mutable reached_n : int;
  slab : Scratch.slab option;
      (* The leased slab holding [memo] and [pred]; its log keeps the
         id of fresh probe [i] at slot [i]. [None] for a fresh store. *)
}

type store = Table of table_store | Flat of flat_store

type t = {
  world : World.t;
  eid : int -> int -> int;
      (* The graph's [edge_id], hoisted out of two record loads per
         probe — resolving the id is the head of the hot path. *)
  policy : policy;
  budget : int option;
  source : int;
  store : store;
  mutable distinct : int;
  mutable raw : int;
}

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let check_args ?budget world ~source =
  (match budget with
  | Some b when b <= 0 -> invalid_arg "Oracle.create: budget must be positive"
  | Some _ | None -> ());
  Topology.Graph.check_vertex (World.graph world) source

let make ~policy ?budget world ~source store =
  {
    world;
    eid = (World.graph world).Topology.Graph.edge_id;
    policy;
    budget;
    source;
    store;
    distinct = 0;
    raw = 0;
  }

let flat_store world ~source ~memo ~pred slab =
  pred.(source) <- source;
  {
    memo;
    pred;
    coin_bits = World.raw_open_bits world;
    reached_rev = [ source ];
    reached_n = 1;
    slab;
  }

let create ?(policy = Local) ?budget world ~source =
  check_args ?budget world ~source;
  let store =
    if World.cached world then begin
      let g = World.graph world in
      Flat
        (flat_store world ~source
           ~memo:(Bytes.make ((g.Topology.Graph.edge_id_bound + 3) / 4) '\000')
           ~pred:(Array.make g.Topology.Graph.vertex_count (-1))
           None)
    end
    else begin
      let predecessor = Hashtbl.create 64 in
      Hashtbl.replace predecessor source source;
      Table { probed_tbl = Hashtbl.create 256; predecessor }
    end
  in
  make ~policy ?budget world ~source store

(* At rest a slab's [pred] is all -1 and its memo all zero. *)
let scratch = Scratch.key ()

let with_scratch ?(policy = Local) ?budget world ~source f =
  if not (World.cached world) then f (create ~policy ?budget world ~source)
  else begin
    check_args ?budget world ~source;
    let g = World.graph world in
    let slab =
      Scratch.lease scratch
        ~bits:((g.Topology.Graph.edge_id_bound + 3) / 4)
        ~ints:g.Topology.Graph.vertex_count ~log:0
    in
    let f_store =
      flat_store world ~source ~memo:slab.Scratch.bits ~pred:slab.Scratch.ints (Some slab)
    in
    let t = make ~policy ?budget world ~source (Flat f_store) in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun v -> Array.unsafe_set f_store.pred v (-1)) f_store.reached_rev;
        let log = slab.Scratch.log in
        for i = 0 to t.distinct - 1 do
          Bytes.unsafe_set f_store.memo (log.(i) lsr 2) '\000'
        done;
        Scratch.release slab)
      (fun () -> f t)
  end

let world t = t.world
let policy t = t.policy
let source t = t.source

let reached t v =
  match t.store with
  | Table { predecessor; _ } -> Hashtbl.mem predecessor v
  | Flat { pred; _ } -> pred.(v) >= 0

let reached_count t =
  match t.store with
  | Table { predecessor; _ } -> Hashtbl.length predecessor
  | Flat f -> f.reached_n

let reached_vertices t =
  match t.store with
  | Table { predecessor; _ } -> Hashtbl.fold (fun v _ acc -> v :: acc) predecessor []
  | Flat f -> f.reached_rev

let distinct_probes t = t.distinct
let raw_probes t = t.raw

let budget_remaining t =
  match t.budget with None -> None | Some b -> Some (b - t.distinct)

let probed_find_opt t id =
  match t.store with
  | Table { probed_tbl; _ } -> Hashtbl.find_opt probed_tbl id
  | Flat f ->
      let b = Char.code (Bytes.unsafe_get f.memo (id lsr 2)) lsr (2 * (id land 3)) in
      if b land 1 <> 0 then Some (b land 2 <> 0) else None

let probe_known t u v =
  match t.eid u v with
  | id -> (
      match probed_find_opt t id with
      | Some state as known ->
          (* A free memo hit: visible in traces as a [fresh = false]
             probe event, but neither counter moves. *)
          if Obs.Trace.on () then
            Obs.Trace.emit (Obs.Trace.Probe { u; v; open_ = state; fresh = false });
          if Obs.Metrics.on () then Obs.Metrics.tick "oracle.probe.known";
          known
      | None -> None)
  | exception Topology.Graph.Not_an_edge _ -> None

(* Shared tail of a fresh (uncached) probe: budget enforcement, the
   actual world query, counters and observability — everything except
   the store writes, which the monomorphic paths do themselves. *)

let check_budget t =
  match t.budget with
  | Some b when t.distinct >= b ->
      t.raw <- t.raw - 1;
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Budget_hit { probes = t.distinct });
      if Obs.Metrics.on () then Obs.Metrics.tick "oracle.budget_hits";
      raise Budget_exhausted
  | Some _ | None -> ()

let query_world t u v id =
  if Obs.Timing.on () then
    Obs.Timing.span "oracle.world_query" (fun () ->
        World.is_open_id t.world u v ~id)
  else World.is_open_id t.world u v ~id

let emit_probe u v state fresh =
  if Obs.Trace.on () then
    Obs.Trace.emit (Obs.Trace.Probe { u; v; open_ = state; fresh });
  if Obs.Metrics.on () then
    Obs.Metrics.tick (if fresh then "oracle.probe.fresh" else "oracle.probe.memo")

(* Monomorphic probe paths: one store dispatch per [probe] call, then
   straight-line record/array/bitset operations. Semantics (event
   order, counter updates, raised exceptions) are identical between the
   two — and to the historical polymorphic implementation. *)

let extend_flat f u v =
  (* [u] and [v] were vertex-checked by [edge_id] before we get here. *)
  let ru = Array.unsafe_get f.pred u >= 0
  and rv = Array.unsafe_get f.pred v >= 0 in
  if ru <> rv then begin
    let fresh_v = if ru then v else u in
    Array.unsafe_set f.pred fresh_v (if ru then u else v);
    f.reached_rev <- fresh_v :: f.reached_rev;
    f.reached_n <- f.reached_n + 1
  end

let extend_table tb u v =
  match (Hashtbl.mem tb.predecessor u, Hashtbl.mem tb.predecessor v) with
  | true, false -> Hashtbl.replace tb.predecessor v u
  | false, true -> Hashtbl.replace tb.predecessor u v
  | true, true | false, false -> ()

let probe_flat t f u v =
  let id = t.eid u v in
  (match t.policy with
  | Unrestricted -> ()
  | Local ->
      if not (f.pred.(u) >= 0 || f.pred.(v) >= 0) then
        raise (Locality_violation (u, v)));
  t.raw <- t.raw + 1;
  (* [extend_flat] is a module-level function (not a local closure):
     without flambda a local capturing [f; u; v] would heap-allocate on
     every probe, and this is the hot path. A previously probed open
     edge may become usable for extension later, once one endpoint is
     reached by another route. *)
  let byte = id lsr 2 and shift = 2 * (id land 3) in
  let b = Char.code (Bytes.unsafe_get f.memo byte) in
  if (b lsr shift) land 1 <> 0 then begin
    let state = (b lsr shift) land 2 <> 0 in
    if state then extend_flat f u v;
    if Atomic.get Obs.Trace.enabled || Atomic.get Obs.Metrics.enabled then
      emit_probe u v state false;
    state
  end
  else begin
    check_budget t;
    (* [Obs.Timing] still needs world queries routed through the
       instrumented path, so the bit-test shortcut only runs untimed. *)
    let state =
      match f.coin_bits with
      | Some bits when not (Atomic.get Obs.Timing.enabled) -> bit_get bits id
      | Some _ | None -> query_world t u v id
    in
    (* Logged before the memo write, so a reset never misses a set bit. *)
    (match f.slab with Some slab -> Scratch.log_set slab t.distinct id | None -> ());
    Bytes.unsafe_set f.memo byte
      (Char.unsafe_chr (b lor ((if state then 3 else 1) lsl shift)));
    t.distinct <- t.distinct + 1;
    if state then extend_flat f u v;
    if Atomic.get Obs.Trace.enabled || Atomic.get Obs.Metrics.enabled then
      emit_probe u v state true;
    state
  end

let probe_table t tb u v =
  let id = t.eid u v in
  (match t.policy with
  | Unrestricted -> ()
  | Local ->
      if not (Hashtbl.mem tb.predecessor u || Hashtbl.mem tb.predecessor v) then
        raise (Locality_violation (u, v)));
  t.raw <- t.raw + 1;
  match Hashtbl.find_opt tb.probed_tbl id with
  | Some state ->
      if state then extend_table tb u v;
      if Atomic.get Obs.Trace.enabled || Atomic.get Obs.Metrics.enabled then
      emit_probe u v state false;
      state
  | None ->
      check_budget t;
      let state = query_world t u v id in
      Hashtbl.replace tb.probed_tbl id state;
      t.distinct <- t.distinct + 1;
      if state then extend_table tb u v;
      if Atomic.get Obs.Trace.enabled || Atomic.get Obs.Metrics.enabled then
      emit_probe u v state true;
      state

let probe t u v =
  match t.store with
  | Flat f -> probe_flat t f u v
  | Table tb -> probe_table t tb u v

(* Popcount over the probed bits (the even-position bits of the packed
   memo); 8-bit table kept tiny and obvious. *)
let byte_popcount =
  lazy
    (Array.init 256 (fun b ->
         let rec bits acc b = if b = 0 then acc else bits (acc + (b land 1)) (b lsr 1) in
         bits 0 b))

let recount_distinct t =
  match t.store with
  | Table { probed_tbl; _ } -> Hashtbl.length probed_tbl
  | Flat f ->
      let table = Lazy.force byte_popcount in
      let count = ref 0 in
      Bytes.iter
        (fun c -> count := !count + table.(Char.code c land 0x55))
        f.memo;
      !count

let predecessor_of t v =
  match t.store with
  | Table { predecessor; _ } -> Hashtbl.find predecessor v
  | Flat { pred; _ } -> pred.(v)

let path_to t target =
  if not (reached t target) then None
  else begin
    let rec walk v acc =
      let prev = predecessor_of t v in
      if prev = v then v :: acc else walk prev (v :: acc)
    in
    Some (walk target [])
  end
