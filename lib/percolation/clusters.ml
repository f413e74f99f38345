type census = {
  component_count : int;
  sizes : int array;
  largest : int;
  second_largest : int;
  vertex_count : int;
  open_edge_count : int;
}

(* One union per open edge, in [Graph.iter_edges] order on both world
   representations, so root ids — and with them [membership]'s
   tie-break — do not depend on the representation. Also returns the
   open-edge count. *)
let union_open world =
  let uf = Union_find.create (World.graph world).Topology.Graph.vertex_count in
  let open_edges = ref 0 in
  World.iter_open_edges world (fun u v ->
      incr open_edges;
      ignore (Union_find.union uf u v));
  (uf, !open_edges)

let components world = fst (union_open world)

let count world =
  let uf, open_edges = union_open world in
  let n = Union_find.element_count uf in
  (* Each component is counted exactly once, at its canonical root —
     no Hashtbl needed. *)
  let size_list = ref [] in
  for v = 0 to n - 1 do
    if Union_find.find uf v = v then
      size_list := Union_find.size uf v :: !size_list
  done;
  let sizes = Array.of_list !size_list in
  Array.sort (fun a b -> compare b a) sizes;
  {
    component_count = Array.length sizes;
    sizes;
    largest = (if Array.length sizes > 0 then sizes.(0) else 0);
    second_largest = (if Array.length sizes > 1 then sizes.(1) else 0);
    vertex_count = n;
    open_edge_count = open_edges;
  }

(* Profiling only: one census is the [clusters.census] span. *)
let census world =
  if Obs.Timing.on () then Obs.Timing.span "clusters.census" (fun () -> count world)
  else count world

let giant_fraction c =
  if c.vertex_count = 0 then 0.0
  else float_of_int c.largest /. float_of_int c.vertex_count

let has_giant ?(threshold = 0.01) c =
  giant_fraction c >= threshold && c.largest >= 2 * c.second_largest

type membership = {
  components : Union_find.t;
  canonical_root : int;
  largest_size : int;
}

let membership world =
  let uf = components world in
  let n = Union_find.element_count uf in
  (* Scan roots in ascending id order with a strictly-greater test: the
     winner is the smallest root id among the maximum-size components,
     so ties resolve to one canonical component deterministically. *)
  let canonical_root = ref (-1) in
  let largest_size = ref 0 in
  for v = 0 to n - 1 do
    if Union_find.find uf v = v then begin
      let s = Union_find.size uf v in
      if s > !largest_size then begin
        largest_size := s;
        canonical_root := v
      end
    end
  done;
  { components = uf; canonical_root = !canonical_root; largest_size = !largest_size }

let member m v = Union_find.find m.components v = m.canonical_root

(* The old implementation compared [size uf v] against the maximum size,
   which wrongly answered [true] for *every* maximum-size component when
   sizes tie — and rebuilt the union-find on each call. Now one
   membership build answers any number of queries against the canonical
   root. *)
let in_largest world v = member (membership world) v
