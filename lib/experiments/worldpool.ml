type stats = { resident : int; constructed : int; hits : int; evicted : int }

type t = {
  mutex : Mutex.t;
  table : (string, Percolation.World.t) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  capacity : int;
  mutable constructed : int;
  mutable hits : int;
  mutable evicted : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Worldpool.create: capacity must be positive";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    order = Queue.create ();
    capacity;
    constructed = 0;
    hits = 0;
    evicted = 0;
  }

(* Graph names are unique per family+parameters (the registries
   guarantee it), so the key needs no structural digest; p is printed
   round-trip exact, matching the checkpoint-key discipline. *)
let key_string (graph : Topology.Graph.t) ~p ~site_p ~seed =
  Printf.sprintf "%s;p=%.17g;site=%s;seed=%Ld" graph.Topology.Graph.name p
    (match site_p with None -> "none" | Some q -> Printf.sprintf "%.17g" q)
    seed

let poolable (graph : Topology.Graph.t) =
  graph.Topology.Graph.edge_id_bound <= Percolation.World.cache_gate
  && graph.Topology.Graph.vertex_count <= Percolation.World.cache_gate

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let get ?site_p t graph ~p ~seed =
  if not (poolable graph) then begin
    locked t (fun () -> t.constructed <- t.constructed + 1);
    Percolation.World.create ?site_p graph ~p ~seed
  end
  else
    let key = key_string graph ~p ~site_p ~seed in
    (* Construction happens inside the lock so a key is built at most
       once — the pool's whole point; resident worlds are startup-time
       objects, so the serialisation cost is irrelevant. *)
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some world ->
            t.hits <- t.hits + 1;
            world
        | None ->
            let world = Percolation.World.create ?site_p graph ~p ~seed in
            Percolation.World.prefill world;
            t.constructed <- t.constructed + 1;
            if Hashtbl.length t.table >= t.capacity then begin
              let oldest = Queue.pop t.order in
              Hashtbl.remove t.table oldest;
              t.evicted <- t.evicted + 1
            end;
            Hashtbl.replace t.table key world;
            Queue.push key t.order;
            world)

let stats t =
  locked t (fun () ->
      {
        resident = Hashtbl.length t.table;
        constructed = t.constructed;
        hits = t.hits;
        evicted = t.evicted;
      })

let metrics_snapshot t =
  let s = stats t in
  let registry = Obs.Metrics.create () in
  Obs.Metrics.add registry "worldpool.constructed" s.constructed;
  Obs.Metrics.add registry "worldpool.hits" s.hits;
  Obs.Metrics.add registry "worldpool.evicted" s.evicted;
  Obs.Metrics.add registry "worldpool.resident" s.resident;
  Obs.Metrics.snapshot registry
