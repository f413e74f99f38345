type verdict = Connected of int | Disconnected | Unknown

(* Two BFS engines over open edges, selected by the world's
   representation and observationally equivalent (property-tested):

   - [bfs_table]: the historical Hashtbl-frontier engine, the reference
     path, used for lazy worlds (implicit graphs too large to index by
     vertex).
   - [bfs_arena]: a visited bitset and an int-array queue indexed by
     vertex id, used for cached worlds (the size gate guarantees the
     arrays fit), reading prefilled open rows or CSR rows with coin-bit
     tests ({!World.rows}). No hashing, no boxing. Same visit order as
     [bfs_table]. Both arrays are leased from this domain's {!Scratch}
     and handed back with only the queued vertices' bits cleared, so a
     search costs O(visited) rather than O(|V|); a nested search on the
     same domain gets fresh arrays.

   Shared limit convention — both engines MUST implement it identically
   so differential tests can compare truncated runs: a fresh vertex is
   checked against [limit] *before* it is recorded. When [limit]
   vertices have already been discovered (the start vertex counts), the
   next fresh vertex triggers `Truncated` without being visited; a
   truncated run therefore visits exactly [limit] vertices.

   Both engines stop when [stop] returns true for a newly discovered
   vertex, when the cluster is exhausted, or when the limit trips. *)

let bfs_table ?limit world start ~stop ~visit =
  let dist = Hashtbl.create 256 in
  Hashtbl.replace dist start 0;
  visit start 0;
  if stop start then `Stopped 0
  else begin
    let queue = Queue.create () in
    Queue.push start queue;
    let truncated = ref false in
    let result = ref `Exhausted in
    (try
       while not (Queue.is_empty queue) do
         let u = Queue.pop queue in
         let du = Hashtbl.find dist u in
         let extend v =
           if not (Hashtbl.mem dist v) then begin
             (* Limit convention: check before recording the fresh vertex. *)
             match limit with
             | Some l when Hashtbl.length dist >= l ->
                 truncated := true;
                 raise Exit
             | Some _ | None ->
                 Hashtbl.replace dist v (du + 1);
                 visit v (du + 1);
                 if stop v then begin
                   result := `Stopped (du + 1);
                   raise Exit
                 end;
                 Queue.push v queue
           end
         in
         Array.iter extend (World.open_neighbors world u)
       done
     with Exit -> ());
    match !result with
    | `Stopped d -> `Stopped d
    | `Exhausted -> if !truncated then `Truncated else `Exhausted_full
  end

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_clear b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Survival bit of a vertex; [None] is bond percolation. *)
let[@inline] alive_bit alive v = match alive with None -> true | Some a -> bit_get a v

(* The arena's visited bits and queue: zero bits at rest, the queue has
   no invariant. *)
let scratch = Scratch.key ()

let bfs_arena ?limit world start ~stop ~visit =
  let n = (World.graph world).Topology.Graph.vertex_count in
  (* Visited lives in a bitset (n bits, cache-resident) rather than an
     int array of distances (8n bytes): the membership test is the one
     random access per scanned edge, so its footprint decides whether
     large-graph BFS runs from L1 or from memory. Depths come from
     level-boundary bookkeeping on the FIFO queue instead — the queue is
     level-ordered, so [depth] bumps exactly when [head] crosses the end
     of the previous level, and visit order is unchanged. Both arrays
     are this domain's scratch. A vertex is queued the moment its bit
     is set, before [visit] and [stop] see it, so clearing the bits of
     [queue.(0 .. tail - 1)] restores the bitset however the search
     ends: found, exhausted, truncated, or raised from [visit]. *)
  let slab = Scratch.lease scratch ~bits:((n + 7) / 8) ~ints:n ~log:0 in
  let visited = slab.Scratch.bits and queue = slab.Scratch.ints in
  let tail = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to !tail - 1 do
        bit_clear visited (Array.unsafe_get queue i)
      done;
      Scratch.release slab)
  @@ fun () ->
  queue.(0) <- start;
  tail := 1;
  bit_set visited start;
  visit start 0;
  if stop start then `Stopped 0
  else begin
    let head = ref 0 in
    let level_end = ref 1 and depth = ref 0 in
    let truncated = ref false in
    let result = ref `Exhausted in
    (* [discover] is the one limit/stop/visit body the row readings
       share — allocated once per BFS, called directly per fresh vertex. *)
    let discover v du1 =
      (* Limit convention: check before recording the fresh vertex. *)
      match limit with
      | Some l when !tail >= l ->
          truncated := true;
          raise Exit
      | Some _ | None ->
          bit_set visited v;
          Array.unsafe_set queue !tail v;
          incr tail;
          visit v du1;
          if stop v then begin
            result := `Stopped du1;
            raise Exit
          end
    in
    (* Straight-line loops over the world's rows — no cross-module call,
       no closure invocation per neighbor: a prefilled world's open rows,
       or any other cached world's CSR rows with coin-bit tests. *)
    let rows = World.rows world in
    (try
       while !head < !tail do
         if !head = !level_end then begin
           incr depth;
           level_end := !tail
         end;
         let u = Array.unsafe_get queue !head in
         incr head;
         let du1 = !depth + 1 in
         match rows with
         | Some (World.Prefilled { offsets; targets }) ->
             for i = offsets.(u) to offsets.(u + 1) - 1 do
               let v = Array.unsafe_get targets i in
               if not (bit_get visited v) then discover v du1
             done
         | Some (World.Coins { csr = { Topology.Csr.xadj; targets; edge_ids }; coins; alive })
           ->
             if alive_bit alive u then
               for i = xadj.(u) to xadj.(u + 1) - 1 do
                 let v = Array.unsafe_get targets i in
                 if bit_get coins (Array.unsafe_get edge_ids i)
                    && alive_bit alive v
                    && not (bit_get visited v)
                 then discover v du1
               done
         | None ->
             World.iter_open_neighbors world u (fun v ->
                 if not (bit_get visited v) then discover v du1)
       done
     with Exit -> ());
    match !result with
    | `Stopped d -> `Stopped d
    | `Exhausted -> if !truncated then `Truncated else `Exhausted_full
  end

type engine = Table | Arena

let bfs_via engine ?limit world start ~stop ~visit =
  (* The arena indexes its bitset without bounds checks. *)
  Topology.Graph.check_vertex (World.graph world) start;
  match engine with
  | Table -> bfs_table ?limit world start ~stop ~visit
  | Arena -> bfs_arena ?limit world start ~stop ~visit

let repr_engine world = if World.cached world then Arena else Table

(* Observability shims: when tracing/metrics are on, the per-vertex
   [visit] hook additionally emits [Reveal_step] events and counts
   discoveries; when both are off the original closure is passed
   unchanged and the BFS engines see zero extra work. Timing wraps the
   whole exploration — reveal BFS is one of the three wall-time sinks
   the profiling layer attributes. *)

let observed_bfs ~engine ?limit world start ~stop ~visit =
  let traced = Obs.Trace.on () in
  let metered = Obs.Metrics.on () in
  let visited = ref 0 in
  let visit =
    if traced || metered then (fun x d ->
      if traced then Obs.Trace.emit (Obs.Trace.Reveal_step { v = x; dist = d });
      incr visited;
      visit x d)
    else visit
  in
  let run () = bfs_via engine ?limit world start ~stop ~visit in
  let result = if Obs.Timing.on () then Obs.Timing.span "reveal.bfs" run else run () in
  if metered then begin
    Obs.Metrics.tick "reveal.bfs_runs";
    Obs.Metrics.tick_n "reveal.visited" !visited
  end;
  result

let connected_via engine ?limit world u v =
  Topology.Graph.check_vertex (World.graph world) u;
  Topology.Graph.check_vertex (World.graph world) v;
  if u = v then Connected 0
  else
    match
      observed_bfs ~engine ?limit world u ~stop:(fun x -> x = v)
        ~visit:(fun _ _ -> ())
    with
    | `Stopped d -> Connected d
    | `Truncated -> Unknown
    | `Exhausted_full -> Disconnected

let connected ?limit world u v = connected_via (repr_engine world) ?limit world u v

let trace_verdict verdict ~probes =
  if Obs.Trace.on () then
    Obs.Trace.emit
      (match verdict with
      | Connected distance -> Obs.Trace.Accept { distance; probes }
      | Disconnected -> Obs.Trace.Reject { reason = Obs.Trace.Disconnected }
      | Unknown -> Obs.Trace.Reject { reason = Obs.Trace.Reveal_limit })

let cluster_of ?limit world v =
  Topology.Graph.check_vertex (World.graph world) v;
  let members = ref [] in
  match
    observed_bfs ~engine:(repr_engine world) ?limit world v
      ~stop:(fun _ -> false)
      ~visit:(fun x _ -> members := x :: !members)
  with
  | `Stopped _ -> assert false
  | `Truncated -> (!members, true)
  | `Exhausted_full -> (!members, false)

let cluster_size_via engine ?limit world v =
  Topology.Graph.check_vertex (World.graph world) v;
  (* Count in the visit hook rather than building a member list. *)
  let count = ref 0 in
  match
    observed_bfs ~engine ?limit world v
      ~stop:(fun _ -> false)
      ~visit:(fun _ _ -> incr count)
  with
  | `Stopped _ -> assert false
  | `Truncated -> (!count, true)
  | `Exhausted_full -> (!count, false)

let cluster_size ?limit world v = cluster_size_via (repr_engine world) ?limit world v

(* The world's engine with no limit: [visit] records every vertex at
   depth <= [radius], and [stop] ends the search at the first vertex
   past it. Levels are visited in order, so by then every vertex within
   the radius has been recorded. It bypasses [observed_bfs]: a ball
   emits no reveal events, counters or span, so traces and metrics
   count connectivity and cluster reveals only. *)
let ball world v ~radius =
  Topology.Graph.check_vertex (World.graph world) v;
  if radius < 0 then invalid_arg "Reveal.ball: negative radius";
  let within = Hashtbl.create 256 and past = ref false in
  ignore
    (bfs_via (repr_engine world) world v
       ~stop:(fun _ -> !past)
       ~visit:(fun x d -> if d <= radius then Hashtbl.add within x d else past := true));
  within
