type cell = Counter of int ref | Hist of Hist.t

type t = (string, cell) Hashtbl.t

let create () : t = Hashtbl.create 32

let add t name n =
  match Hashtbl.find_opt t name with
  | Some (Counter r) -> r := !r + n
  | Some (Hist _) -> invalid_arg ("Metrics.add: " ^ name ^ " is a histogram")
  | None -> Hashtbl.replace t name (Counter (ref n))

let incr t name = add t name 1

let observe t name v =
  match Hashtbl.find_opt t name with
  | Some (Hist h) -> Hist.add h (float_of_int v)
  | Some (Counter _) -> invalid_arg ("Metrics.observe: " ^ name ^ " is a counter")
  | None ->
      let h = Hist.create () in
      Hist.add h (float_of_int v);
      Hashtbl.replace t name (Hist h)

(* ------------------------------------------------------------------ *)
(* Snapshots: immutable, name-sorted association lists. Small enough
   (dozens of names) that list merges beat fancier structures.         *)

type value = V_counter of int | V_hist of Hist.t

type snapshot = (string * value) list

let empty : snapshot = []
let is_empty s = s = []

let snapshot (t : t) : snapshot =
  Hashtbl.fold
    (fun name cell acc ->
      let value =
        match cell with Counter r -> V_counter !r | Hist h -> V_hist (Hist.copy h)
      in
      (name, value) :: acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_value name a b =
  match (a, b) with
  | V_counter x, V_counter y -> V_counter (x + y)
  | V_hist x, V_hist y -> V_hist (Hist.merge x y)
  | V_counter _, V_hist _ | V_hist _, V_counter _ ->
      invalid_arg ("Metrics.merge: " ^ name ^ " is a counter in one snapshot, a histogram in the other")

let rec merge (a : snapshot) (b : snapshot) : snapshot =
  match (a, b) with
  | [], s | s, [] -> s
  | (ka, va) :: resta, (kb, vb) :: restb ->
      let c = String.compare ka kb in
      if c < 0 then (ka, va) :: merge resta b
      else if c > 0 then (kb, vb) :: merge a restb
      else (ka, merge_value ka va vb) :: merge resta restb

let counter s name =
  match List.assoc_opt name s with Some (V_counter v) -> v | _ -> 0

let counters s =
  List.filter_map
    (function name, V_counter v -> Some (name, v) | _, V_hist _ -> None)
    s

let histogram s name =
  match List.assoc_opt name s with Some (V_hist h) -> Some h | _ -> None

let to_json (s : snapshot) =
  let counters =
    List.filter_map
      (function name, V_counter v -> Some (name, Json.Int v) | _ -> None)
      s
  in
  let histograms =
    List.filter_map
      (function
        | _, V_counter _ -> None
        | name, V_hist h ->
            let int v = Json.Int (int_of_float v) in
            Some
              ( name,
                Json.Obj
                  [
                    ("count", Json.Int h.Hist.count);
                    ("sum", int h.Hist.sum);
                    ("min", int h.Hist.min);
                    ("max", int h.Hist.max);
                    ("buckets", Hist.buckets_json h);
                  ] ))
      s
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "metrics/v1");
         ("counters", Json.Obj counters);
         ("histograms", Json.Obj histograms);
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Enable switch and the ambient (domain-local) registry.              *)

let enabled = Atomic.make false

let[@inline] on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_ambient t f =
  let previous = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient previous) f

let tick name =
  match Domain.DLS.get ambient with Some t -> incr t name | None -> ()

let tick_n name n =
  match Domain.DLS.get ambient with Some t -> add t name n | None -> ()

let record name v =
  match Domain.DLS.get ambient with Some t -> observe t name v | None -> ()

(* ------------------------------------------------------------------ *)
(* Process-global accumulator.                                         *)

let global_lock = Mutex.create ()
let global : snapshot ref = ref empty

let absorb s =
  if s <> empty then begin
    Mutex.lock global_lock;
    global := merge !global s;
    Mutex.unlock global_lock
  end

let global_snapshot () =
  Mutex.lock global_lock;
  let s = !global in
  Mutex.unlock global_lock;
  s

let reset_global () =
  Mutex.lock global_lock;
  global := empty;
  Mutex.unlock global_lock
