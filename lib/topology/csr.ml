(* Flat compressed-sparse-row adjacency: per-vertex offsets into two
   parallel int arrays holding neighbor targets and canonical edge ids.
   The generic fill costs a full adjacency enumeration (every
   [neighbors] array allocated once, every [edge_id] computed once);
   afterwards any consumer can walk a vertex's row with plain array
   reads — no closure calls, no per-query allocation. Every reader of
   one graph value shares the rows held in its cell. *)

type t = Graph.csr = {
  xadj : int array;
  targets : int array;
  edge_ids : int array;
}

let build (g : Graph.t) =
  let n = g.Graph.vertex_count in
  (* Materialise every row once: the row lengths define the offsets, so
     a [degree] function that disagreed with [neighbors] could not skew
     the layout. *)
  let rows = Array.init n g.Graph.neighbors in
  let xadj = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v) + Array.length rows.(v)
  done;
  let total = xadj.(n) in
  let targets = Array.make total 0 in
  let edge_ids = Array.make total 0 in
  for v = 0 to n - 1 do
    let base = xadj.(v) in
    Array.iteri
      (fun i w ->
        targets.(base + i) <- w;
        edge_ids.(base + i) <- g.Graph.edge_id v w)
      rows.(v)
  done;
  { xadj; targets; edge_ids }

(* Fill outside any lock: a racing domain may fill the same cell twice,
   which wastes work but cannot produce a wrong result (a fill is
   pure), and the compare-and-set hands every caller the one result
   that won. *)
let of_graph g =
  let { Graph.fill; rows } = g.Graph.csr in
  match Atomic.get rows with
  | Some csr -> csr
  | None ->
      let csr = match fill with Some fill -> fill () | None -> build g in
      if Atomic.compare_and_set rows None (Some csr) then csr
      else Option.get (Atomic.get rows)
