type t = { seed : int64; gen : Xoshiro256.t }

let create seed = { seed; gen = Xoshiro256.create seed }
let seed t = t.seed
let generator t = t.gen

let split t label =
  let child_seed = Coin.derive t.seed label in
  create child_seed

let int_in t bound = Xoshiro256.next_int_in t.gen bound
let float_unit t = Xoshiro256.next_float t.gen
let bool t = Xoshiro256.next_bool t.gen
let bernoulli t p = float_unit t < p
let int64 t = Xoshiro256.next t.gen

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_in t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Stream.pick: empty array";
  a.(int_in t (Array.length a))
