(* Clamp an inverse-CDF ceiling to an int: below 1 (u = 0) is 1, and a
   non-finite ceiling or one past 2^30 - 1 is [max_int / 4], far enough
   from [max_int] that adding it to a round cannot overflow. The compare
   is on ints: the polymorphic [max] is a C call. *)
let[@inline] clamp k =
  if Float.is_finite k && k < 1073741823.0 then
    let k = int_of_float k in
    if k < 1 then 1 else k
  else max_int / 4

(* The reference ceiling, taken only near an integer; kept out of line
   so the common path stays small enough to inline. *)
let geometric_reference ~log_q u = clamp (Float.ceil (Float.log1p (-.u) /. log_q))

(* [1 -. u] is exact for a 53-bit uniform, and [log] and [log1p] are
   each within a few ulp, so [y] is within about 1e-15 relative of the
   reference quotient: more than 1e-9 relative from every integer, both
   have the same ceiling. [log] is the cheaper call (about 11 against
   23 ns with glibc 2.36 on a 2-vCPU Xeon). *)
let[@inline] geometric_step ~log_q u =
  let y = Float.log (1.0 -. u) /. log_q in
  let k = Float.ceil y in
  let slack = 1e-9 *. y in
  if k -. y > slack && y -. (k -. 1.0) > slack then clamp k
  else geometric_reference ~log_q u

let[@inline] geometric_draw gen ~log_q =
  if log_q = Float.neg_infinity then 1
  else geometric_step ~log_q (Xoshiro256.next_float gen)

let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Sample.geometric: p must be in (0,1]";
  geometric_draw (Stream.generator t) ~log_q:(Float.log1p (-.p))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Sample.exponential: rate must be positive";
  -.log1p (-.Stream.float_unit t) /. rate

let distinct_pair t n =
  if n < 2 then invalid_arg "Sample.distinct_pair: need n >= 2";
  let a = Stream.int_in t n in
  let b = Stream.int_in t (n - 1) in
  let b = if b >= a then b + 1 else b in
  (a, b)

let subset_indices t ~n ~k =
  if k < 0 || k > n then invalid_arg "Sample.subset_indices: need 0 <= k <= n";
  (* Floyd's algorithm: for j in n-k..n-1 insert a random element. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let candidate = Stream.int_in t (j + 1) in
    if Hashtbl.mem chosen candidate then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen candidate ()
  done;
  let result = Array.make k 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun key () ->
      result.(!i) <- key;
      incr i)
    chosen;
  Array.sort compare result;
  result
