(* Link churn: every edge independently alternates between up and down
   over rounds, driven by a seeded alternating-renewal process. The
   plan (churnplan/v1) carries only the two hazard rates and a seed;
   the whole trajectory of every link is a pure function of
   (plan seed, world seed, edge id), so a churned simulation is exactly
   as reproducible as a static one — at any [--jobs], across kills and
   resumes — by the same argument as the percolation edge coins. *)

type plan = { fail : float; repair : float; seed : int64 }

let validate_rate name x =
  if not (Float.is_finite x) || x < 0.0 || x > 1.0 then
    invalid_arg (Printf.sprintf "Netsim.Churn: %s rate must be in [0, 1]" name)

let make ?(seed = 0L) ~fail ~repair () =
  validate_rate "fail" fail;
  validate_rate "repair" repair;
  { fail; repair; seed }

let describe t =
  Printf.sprintf "fail=%g,repair=%g,seed=%Ld" t.fail t.repair t.seed

(* ------------------------------------------------------------------ *)
(* churnplan/v1.                                                       *)

let schema = "churnplan/v1"

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("fail", Obs.Json.Float t.fail);
      ("repair", Obs.Json.Float t.repair);
      (* Seeds print as strings, like faultplan/v1: JSON readers must
         not round 64-bit values through floats. *)
      ("seed", Obs.Json.String (Printf.sprintf "%Ld" t.seed));
    ]

let to_string t = Obs.Json.to_string (to_json t) ^ "\n"

let ( let* ) = Result.bind

let of_json json =
  let* declared =
    match Option.bind (Obs.Json.member "schema" json) Obs.Json.to_str with
    | Some s -> Ok s
    | None -> Error "churnplan: missing schema"
  in
  let* () =
    if declared = schema then Ok ()
    else Error (Printf.sprintf "churnplan: schema %S, expected %S" declared schema)
  in
  let float_field name =
    match Option.bind (Obs.Json.member name json) Obs.Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "churnplan: missing float field %S" name)
  in
  let* fail = float_field "fail" in
  let* repair = float_field "repair" in
  let* seed =
    match Obs.Json.member "seed" json with
    | None -> Ok 0L
    | Some (Obs.Json.String s) -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "churnplan: bad seed %S" s))
    | Some (Obs.Json.Int i) -> Ok (Int64.of_int i)
    | Some _ -> Error "churnplan: bad seed"
  in
  match make ~seed ~fail ~repair () with
  | plan -> Ok plan
  | exception Invalid_argument message -> Error message

let of_string text = Result.bind (Obs.Json.of_string text) of_json

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error message -> Error message

(* Compact CLI spec: fail=0.05,repair=0.3,seed=7 (repair and seed
   optional; repair defaults to the fail rate, seed to 0). *)
let spec_syntax = "fail=RATE[,repair=RATE][,seed=N]"

let of_spec spec =
  let parse_item item =
    let item = String.trim item in
    let value_after prefix =
      String.sub item (String.length prefix)
        (String.length item - String.length prefix)
    in
    let starts_with prefix =
      String.length item > String.length prefix
      && String.sub item 0 (String.length prefix) = prefix
    in
    if starts_with "fail=" then
      match float_of_string_opt (value_after "fail=") with
      | Some f -> Ok (`Fail f)
      | None -> Error (Printf.sprintf "churn spec: bad rate in %S" item)
    else if starts_with "repair=" then
      match float_of_string_opt (value_after "repair=") with
      | Some f -> Ok (`Repair f)
      | None -> Error (Printf.sprintf "churn spec: bad rate in %S" item)
    else if starts_with "seed=" then
      match Int64.of_string_opt (value_after "seed=") with
      | Some s -> Ok (`Seed s)
      | None -> Error (Printf.sprintf "churn spec: bad seed in %S" item)
    else
      Error
        (Printf.sprintf "churn spec: %S (expected %s)" item spec_syntax)
  in
  let items =
    String.split_on_char ',' spec |> List.filter (fun s -> String.trim s <> "")
  in
  if items = [] then Error "churn spec: empty"
  else
    let key = function `Fail _ -> "fail" | `Repair _ -> "repair" | `Seed _ -> "seed" in
    let* parsed =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* p = parse_item item in
          if List.exists (fun q -> key q = key p) acc then
            Error (Printf.sprintf "churn spec: duplicate %s= in %S" (key p) spec)
          else Ok (p :: acc))
        (Ok []) items
    in
    let* fail =
      match List.find_map (function `Fail f -> Some f | _ -> None) parsed with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "churn spec: missing fail= (expected %s)" spec_syntax)
    in
    let repair =
      match List.find_map (function `Repair f -> Some f | _ -> None) parsed with
      | Some f -> f
      | None -> fail
    in
    let seed =
      match List.find_map (function `Seed s -> Some s | _ -> None) parsed with
      | Some s -> s
      | None -> 0L
    in
    match make ~seed ~fail ~repair () with
    | plan -> Ok plan
    | exception Invalid_argument message -> Error message

(* ------------------------------------------------------------------ *)
(* Runtime: one renewal cursor per edge, extended on demand.           *)

(* One edge's trajectory is its sequence of toggle rounds: the link
   starts up at round 1 and flips state at each toggle. Durations are
   geometric — a link that is up fails each round with probability
   [fail] (so stays up Geometric(fail) rounds), a down link repairs
   with probability [repair]. Each duration is drawn by inverse CDF
   from the edge's own stream, so extending a trajectory never touches
   another edge's randomness and the whole schedule is pure in
   (plan seed, world seed, edge id).

   A cursor keeps only the newest decided segment [prev, last) of that
   sequence: [count] toggles have been drawn, the newest at round
   [last], and [prev] is the one before it (round 1 if there is none;
   a fresh cursor has [prev = last = 1]). The link is up on the segment
   iff [count - 1] is even. From [last] on nothing is drawn yet —
   unless the current state's hazard is zero, which freezes it there
   forever. *)
type cursor = {
  gen : Prng.Xoshiro256.t;
  mutable count : int;
  mutable prev : int;
  mutable last : int;
}

type state = {
  plan : plan;
  edge_seed : int64;
  log_fail : float;  (* log1p (-. fail), the inverse-CDF denominator *)
  log_repair : float;
  mutable cursors : cursor array;  (* by edge id; [unseen] if never asked *)
}

(* The shared "not drawn yet" slot; it is never extended. *)
let unseen =
  { gen = Prng.Xoshiro256.of_state (1L, 0L, 0L, 0L); count = 0; prev = 1; last = 1 }

let instantiate plan ~world_seed =
  (* Decorrelate from every other consumer of the two seeds: the world
     seed feeds edge coins and the engine's node streams, the plan seed
     may be shared across worlds in a sweep. *)
  let edge_seed =
    Int64.logxor (Prng.Coin.derive plan.seed 0xC4) world_seed
  in
  {
    plan;
    edge_seed;
    log_fail = Float.log1p (-.plan.fail);
    log_repair = Float.log1p (-.plan.repair);
    cursors = [||];
  }

let plan t = t.plan

(* The generator of [Prng.Stream.create (derive edge_seed edge)]. *)
let fresh t edge =
  let gen = Prng.Xoshiro256.create (Prng.Coin.derive t.edge_seed edge) in
  { gen; count = 0; prev = 1; last = 1 }

let cursor t edge =
  let size = Array.length t.cursors in
  if edge >= size then
    t.cursors <- Array.append t.cursors (Array.make (max (edge + 1 - size) size) unseen);
  if t.cursors.(edge) == unseen then t.cursors.(edge) <- fresh t edge;
  t.cursors.(edge)

(* Geometric(rate) on {1, 2, ...} by inverse CDF, given
   [log_rate = log1p (-. rate)]. rate = 0 never fires (caller
   special-cases); rate = 1 fires immediately. *)
let geometric gen rate log_rate =
  if rate >= 1.0 then 1
  else
    let u = Prng.Xoshiro256.next_float gen in
    let k = Float.ceil (Float.log1p (-.u) /. log_rate) in
    if Float.is_finite k && k < 1073741823.0 then max 1 (int_of_float k)
    else max_int / 4

(* Draw toggles until the undrawn part starts after [round]; a zero
   hazard for the current state freezes the cursor there forever. *)
let rec extend t c ~round =
  if c.last <= round then begin
    let up = c.count land 1 = 0 in
    let rate = if up then t.plan.fail else t.plan.repair in
    if rate > 0.0 then begin
      let next =
        c.last + geometric c.gen rate (if up then t.log_fail else t.log_repair)
      in
      if next >= c.last (* overflow guard *) then begin
        c.prev <- c.last;
        c.last <- next;
        c.count <- c.count + 1;
        extend t c ~round
      end
    end
  end

let link_up t ~edge ~round =
  if edge < 0 then
    invalid_arg (Printf.sprintf "Netsim.Churn.link_up: negative edge id %d" edge);
  (* Every toggle falls at round 2 or later. *)
  if t.plan.fail <= 0.0 || round <= 1 then true
  else begin
    (* The engine's rounds never decrease, so the kept cursor serves it;
       an earlier round replays the edge from its seed instead. *)
    let kept = cursor t edge in
    let c = if round >= kept.prev then kept else fresh t edge in
    extend t c ~round;
    (if round < c.last then c.count - 1 else c.count) land 1 = 0
  end
