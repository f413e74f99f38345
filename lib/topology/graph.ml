exception Not_an_edge of int * int

type csr = { xadj : int array; targets : int array; edge_ids : int array }

(* Empty until {!Csr.of_graph} first reads it; the atomic lets domains
   race on that first read without tearing (one result wins). *)
type csr_cell = { fill : (unit -> csr) option; rows : csr option Atomic.t }

type t = {
  name : string;
  vertex_count : int;
  degree : int -> int;
  neighbors : int -> int array;
  edge_id : int -> int -> int;
  edge_id_bound : int;
  distance : (int -> int -> int) option;
  csr : csr_cell;
}

let csr_cell ?fill () = { fill; rows = Atomic.make None }

let check_vertex g v =
  if v < 0 || v >= g.vertex_count then
    invalid_arg (Printf.sprintf "%s: vertex %d out of range [0,%d)" g.name v g.vertex_count)

let is_edge g u v =
  match g.edge_id u v with
  | _ -> true
  | exception Not_an_edge _ -> false

let iter_edges g f =
  for u = 0 to g.vertex_count - 1 do
    Array.iter (fun v -> if u < v then f u v) (g.neighbors u)
  done

let edge_count g =
  let count = ref 0 in
  iter_edges g (fun _ _ -> incr count);
  !count

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edge_list g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc))

let mean_degree g =
  if g.vertex_count = 0 then 0.0
  else begin
    let total = ref 0 in
    for v = 0 to g.vertex_count - 1 do
      total := !total + g.degree v
    done;
    float_of_int !total /. float_of_int g.vertex_count
  end

let bfs_distance g source target =
  check_vertex g source;
  check_vertex g target;
  if source = target then Some 0
  else begin
    (* Only called on graphs small enough to enumerate, so flat arrays
       indexed by vertex id beat a Hashtbl frontier. *)
    let dist = Array.make g.vertex_count (-1) in
    let queue = Array.make g.vertex_count 0 in
    dist.(source) <- 0;
    queue.(0) <- source;
    let head = ref 0 and tail = ref 1 in
    let result = ref None in
    (try
       while !head < !tail do
         let u = queue.(!head) in
         incr head;
         let du = dist.(u) in
         Array.iter
           (fun v ->
             if dist.(v) < 0 then begin
               dist.(v) <- du + 1;
               if v = target then begin
                 result := Some (du + 1);
                 raise Exit
               end;
               queue.(!tail) <- v;
               incr tail
             end)
           (g.neighbors u)
       done
     with Exit -> ());
    !result
  end
