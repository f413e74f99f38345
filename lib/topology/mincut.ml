(* Edmonds–Karp for unit-capacity undirected graphs, over the graph's
   own {!Csr} rows. Each undirected edge carries at most one unit of
   flow, one way: [flow.(id)] is the vertex that unit points at, or -1.
   An arc u->v is usable iff its edge carries no flow, or carries flow
   v->u (which the arc cancels). The BFS state is flat arrays reused by
   every augmentation. *)

type residual = {
  csr : Csr.t;
  flow : int array;
  pred : int array;  (* BFS predecessor; -1 unreached, the source its own *)
  via : int array;  (* edge id of the arc that reached each vertex *)
  queue : int array;
}

(* Breadth-first search over usable arcs from [source] until [sink] is
   reached or the frontier empties. Rows are walked in slot order, the
   order [neighbors] returns, so the paths found (and the cut below) are
   those of a search over [neighbors]. Afterwards [pred] marks every
   reached vertex: after a failed search, the whole source side of the
   residual graph. *)
let search r ~source ~sink =
  let { Csr.xadj; targets; edge_ids } = r.csr in
  Array.fill r.pred 0 (Array.length r.pred) (-1);
  r.pred.(source) <- source;
  r.queue.(0) <- source;
  let head = ref 0 and tail = ref 1 and found = ref false in
  while (not !found) && !head < !tail do
    let u = r.queue.(!head) in
    incr head;
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = targets.(i) and id = edge_ids.(i) in
      let toward = r.flow.(id) in
      if r.pred.(v) < 0 && (toward < 0 || toward = u) then begin
        r.pred.(v) <- u;
        r.via.(v) <- id;
        if v = sink then found := true
        else begin
          r.queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  !found

(* Push one unit along the path [search] found: an arc onto a free edge
   claims it, an arc against existing flow cancels that flow. *)
let augment r ~source ~sink =
  let v = ref sink in
  while !v <> source do
    let id = r.via.(!v) in
    r.flow.(id) <- (if r.flow.(id) < 0 then !v else -1);
    v := r.pred.(!v)
  done

let solve g ~source ~sink =
  Graph.check_vertex g source;
  Graph.check_vertex g sink;
  if source = sink then invalid_arg "Mincut: source = sink";
  let n = g.Graph.vertex_count in
  let r =
    {
      csr = Csr.of_graph g;
      flow = Array.make g.Graph.edge_id_bound (-1);
      pred = Array.make n (-1);
      via = Array.make n 0;
      queue = Array.make n 0;
    }
  in
  let value = ref 0 in
  while search r ~source ~sink do
    augment r ~source ~sink;
    incr value
  done;
  (r, !value)

let max_flow g ~source ~sink = snd (solve g ~source ~sink)

let min_cut g ~source ~sink =
  let r, _ = solve g ~source ~sink in
  (* The last search failed, so [pred] marks the source side. Edges are
     listed in [Graph.fold_edges] order: u ascending, each row in slot
     order, u < v, prepended. *)
  let { Csr.xadj; targets; _ } = r.csr in
  let cut = ref [] in
  for u = 0 to g.Graph.vertex_count - 1 do
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = targets.(i) in
      if u < v then begin
        let u_in = r.pred.(u) >= 0 and v_in = r.pred.(v) >= 0 in
        if u_in && not v_in then cut := (u, v) :: !cut
        else if v_in && not u_in then cut := (v, u) :: !cut
      end
    done
  done;
  !cut
