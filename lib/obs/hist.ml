(* Histograms bucket by bit length: value [v >= 0] lands in bucket
   [bits v], i.e. 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... so bucket
   [i >= 1] covers [2^(i-1), 2^i). 64 buckets cover every OCaml int. *)

let bucket_count = 64

let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 v

let lower_bound i = if i <= 1 then i else 1 lsl (i - 1)

(* A bucket only records "somewhere in [2^(i-1), 2^i)", so a quantile
   read off the buckets is the bucket's inclusive upper bound — a
   conservative (never under-reporting) estimate. *)
let upper_bound i = if i <= 1 then i else (1 lsl i) - 1

type t = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  buckets : int array;
}

let create () =
  {
    count = 0;
    sum = 0.;
    min = infinity;
    max = neg_infinity;
    buckets = Array.make bucket_count 0;
  }

let copy h = { h with buckets = Array.copy h.buckets }

let add h x =
  h.count <- h.count + 1;
  h.sum <- h.sum +. x;
  if x < h.min then h.min <- x;
  if x > h.max then h.max <- x;
  let b = bucket_of (if x >= float_of_int max_int then max_int else int_of_float x) in
  h.buckets.(b) <- h.buckets.(b) + 1

let absorb ~into h =
  into.count <- into.count + h.count;
  into.sum <- into.sum +. h.sum;
  if h.min < into.min then into.min <- h.min;
  if h.max > into.max then into.max <- h.max;
  Array.iteri
    (fun i c -> if c > 0 then into.buckets.(i) <- into.buckets.(i) + c)
    h.buckets

let merge a b =
  let m = copy a in
  absorb ~into:m b;
  m

let quantile h q =
  if h.count = 0 || not (Float.is_finite q) || q < 0. || q > 1. then None
  else
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let rec find i seen =
      if i >= bucket_count then h.max
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then
          Float.min h.max (Float.max h.min (float_of_int (upper_bound i)))
        else find (i + 1) seen
    in
    Some (find 0 0)

(* ------------------------------------------------------------------ *)
(* The sparse wire form and its decoder.                               *)

let buckets_json h =
  Json.List
    (List.filter_map
       (fun i ->
         if h.buckets.(i) = 0 then None
         else Some (Json.List [ Json.Int (lower_bound i); Json.Int h.buckets.(i) ]))
       (List.init bucket_count Fun.id))

let ( let* ) = Result.bind

let of_json ~suffix j =
  let field key conv what =
    match Option.bind (Json.member key j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "field %S is missing or not %s" key what)
  in
  let extreme key =
    match Json.member key j with
    | None | Some Json.Null -> Ok None
    | Some _ -> Result.map Option.some (field key Json.to_float "a number")
  in
  let* count = field "count" Json.to_int "an integer" in
  let* sum = field ("sum" ^ suffix) Json.to_float "a number" in
  let* min = extreme ("min" ^ suffix) in
  let* max = extreme ("max" ^ suffix) in
  let* pairs = field "buckets" Json.to_list "a list" in
  let buckets = Array.make bucket_count 0 in
  let rec fill last = function
    | [] -> Ok ()
    | Json.List [ Json.Int lb; Json.Int c ] :: rest ->
        let i = bucket_of lb in
        if lb < 0 || lb land (lb - 1) <> 0 then
          Error (Printf.sprintf "bucket bound %d is neither 0 nor a power of two" lb)
        else if i <= last then Error "bucket bounds are not strictly ascending"
        else if c < 0 then Error (Printf.sprintf "bucket %d has a negative count" lb)
        else begin
          buckets.(i) <- c;
          fill i rest
        end
    | _ -> Error "bucket entries must be [int, int] pairs"
  in
  let* () = fill (-1) pairs in
  if Array.fold_left ( + ) 0 buckets <> count then
    Error "bucket counts do not sum to \"count\""
  else
    match (min, max) with
    | Some min, Some max -> Ok { count; sum; min; max; buckets }
    | _ when count = 0 -> Ok { count; sum; min = infinity; max = neg_infinity; buckets }
    | _ -> Error "a non-empty histogram needs a numeric min and max"
