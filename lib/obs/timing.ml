let enabled = Atomic.make false

let[@inline] on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* Each domain keeps a span *stack* plus a tree of per-path nodes;
   contexts register themselves in a global list on first use so
   [tree]/[report] can fold them. Nodes are only written by their
   owning domain — readers fold racily, which is fine for a profiling
   summary. *)

(* Beyond this depth new spans stop growing the tree and fold into the
   innermost frame's node — a runaway recursion gets a bounded tree
   instead of one node per stack level. *)
let max_depth = 64

type node = {
  name : string;
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  (* How many frames on this domain's stack point at this node right
     now. Only the outermost activation adds to [total_s]; without the
     guard a depth-capped (node-reusing) span would count its wall
     time once per nesting level. *)
  mutable active : int;
  children : (string, node) Hashtbl.t;
}

type frame = {
  node : node;
  start : float;
  mutable child_s : float;
  outer : bool;
}

type ctx = {
  roots : (string, node) Hashtbl.t;
  mutable stack : frame list;
  mutable depth : int;
}

let ctxs_lock = Mutex.create ()
let ctxs : ctx list ref = ref []

let domain_ctx : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = { roots = Hashtbl.create 16; stack = []; depth = 0 } in
      Mutex.lock ctxs_lock;
      ctxs := c :: !ctxs;
      Mutex.unlock ctxs_lock;
      c)

let find_node ctx name =
  let table =
    match ctx.stack with [] -> ctx.roots | f :: _ -> f.node.children
  in
  match Hashtbl.find_opt table name with
  | Some n -> n
  | None ->
      let n =
        {
          name;
          count = 0;
          total_s = 0.;
          self_s = 0.;
          active = 0;
          children = Hashtbl.create 4;
        }
      in
      Hashtbl.replace table name n;
      n

let enter ctx name =
  let node =
    match ctx.stack with
    | top :: _ when ctx.depth >= max_depth -> top.node
    | _ -> find_node ctx name
  in
  let frame =
    { node; start = Unix.gettimeofday (); child_s = 0.; outer = node.active = 0 }
  in
  node.active <- node.active + 1;
  ctx.stack <- frame :: ctx.stack;
  ctx.depth <- ctx.depth + 1;
  frame

let leave ctx frame =
  let elapsed = Unix.gettimeofday () -. frame.start in
  (match ctx.stack with
  | top :: rest when top == frame ->
      ctx.stack <- rest;
      ctx.depth <- ctx.depth - 1
  | stack ->
      (* Unbalanced pop — a concurrent [reset] tore the stack. Drop
         everything down to (and including) our frame. *)
      let rec pop = function
        | top :: rest when top == frame -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      ctx.stack <- pop stack;
      ctx.depth <- List.length ctx.stack);
  let node = frame.node in
  node.active <- node.active - 1;
  node.count <- node.count + 1;
  if frame.outer then node.total_s <- node.total_s +. elapsed;
  node.self_s <- node.self_s +. Float.max 0. (elapsed -. frame.child_s);
  match ctx.stack with
  | parent :: _ -> parent.child_s <- parent.child_s +. elapsed
  | [] -> ()

let span name f =
  if not (on ()) then f ()
  else begin
    let ctx = Domain.DLS.get domain_ctx in
    let frame = enter ctx name in
    Fun.protect ~finally:(fun () -> leave ctx frame) f
  end

(* ------------------------------------------------------------------ *)
(* Folding: merge the per-domain trees by name path.                   *)

type tree = {
  span_name : string;
  calls : int;
  total : float;
  self : float;
  children : tree list;
}

let rec merge_tables (tables : (string, node) Hashtbl.t list) : tree list =
  let names = Hashtbl.create 16 in
  List.iter
    (fun t -> Hashtbl.iter (fun name _ -> Hashtbl.replace names name ()) t)
    tables;
  Hashtbl.fold (fun name () acc -> name :: acc) names []
  |> List.sort String.compare
  |> List.map (fun name ->
         let nodes = List.filter_map (fun t -> Hashtbl.find_opt t name) tables in
         {
           span_name = name;
           calls = List.fold_left (fun a n -> a + n.count) 0 nodes;
           total = List.fold_left (fun a n -> a +. n.total_s) 0. nodes;
           self = List.fold_left (fun a n -> a +. n.self_s) 0. nodes;
           children = merge_tables (List.map (fun (n : node) -> n.children) nodes);
         })

let tree () =
  Mutex.lock ctxs_lock;
  let snapshot = !ctxs in
  Mutex.unlock ctxs_lock;
  merge_tables (List.map (fun c -> c.roots) snapshot)

type entry = { name : string; count : int; total_s : float; self_s : float }

type acc_cell = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_self : float;
}

let report () =
  let acc : (string, acc_cell) Hashtbl.t = Hashtbl.create 16 in
  let rec walk ancestors (t : tree) =
    let c =
      match Hashtbl.find_opt acc t.span_name with
      | Some c -> c
      | None ->
          let c = { a_count = 0; a_total = 0.; a_self = 0. } in
          Hashtbl.replace acc t.span_name c;
          c
    in
    c.a_count <- c.a_count + t.calls;
    c.a_self <- c.a_self +. t.self;
    (* A recursive occurrence is already inside an ancestor's total for
       the same name — adding it again would double count the flat
       column. *)
    if not (List.mem t.span_name ancestors) then c.a_total <- c.a_total +. t.total;
    List.iter (walk (t.span_name :: ancestors)) t.children
  in
  List.iter (walk []) (tree ());
  Hashtbl.fold
    (fun name c l ->
      { name; count = c.a_count; total_s = c.a_total; self_s = c.a_self } :: l)
    acc []
  |> List.sort (fun a b ->
         match Float.compare b.total_s a.total_s with
         | 0 -> String.compare a.name b.name
         | c -> c)

let reset () =
  Mutex.lock ctxs_lock;
  List.iter
    (fun c ->
      Hashtbl.reset c.roots;
      c.stack <- [];
      c.depth <- 0)
    !ctxs;
  Mutex.unlock ctxs_lock

(* ------------------------------------------------------------------ *)
(* Exports.                                                            *)

let profile_json () =
  let rec node_json t =
    Json.Obj
      ([
         ("name", Json.String t.span_name);
         ("count", Json.Int t.calls);
         ("total_s", Json.Float t.total);
         ("self_s", Json.Float t.self);
       ]
      @
      if t.children = [] then []
      else [ ("children", Json.List (List.map node_json t.children)) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "profile/v1");
         ("spans", Json.List (List.map node_json (tree ())));
       ])
  ^ "\n"

(* Flamegraph folded stacks: "root;child;leaf". The separator is
   load-bearing for the format, so scrub it from names. *)
let paths trees =
  let clean name = String.map (fun c -> if c = ';' then ':' else c) name in
  let rec walk prefix acc t =
    let path =
      if prefix = "" then clean t.span_name else prefix ^ ";" ^ clean t.span_name
    in
    List.fold_left (walk path) ((path, t) :: acc) t.children
  in
  List.rev (List.fold_left (walk "") [] trees)

let folded trees =
  List.filter_map
    (fun (path, t) ->
      let us = int_of_float (Float.round (t.self *. 1e6)) in
      if us > 0 then Some (Printf.sprintf "%s %d" path us) else None)
    (paths trees)
