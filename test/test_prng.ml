(* Tests for the prng library: generators, coins, streams, samplers. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Splitmix64                                                          *)

let test_splitmix_known_values () =
  (* Reference outputs of SplitMix64 with seed 0 (from the public domain
     reference implementation): the k-th is [mix (k * golden_gamma)], the
     words [Xoshiro256.create] computes. *)
  let output k =
    Prng.Splitmix64.mix (Int64.mul (Int64.of_int k) Prng.Splitmix64.golden_gamma)
  in
  Alcotest.(check int64) "first" 0xE220A8397B1DCDAFL (output 1);
  Alcotest.(check int64) "second" 0x6E789E6AA1B965F4L (output 2);
  Alcotest.(check int64) "third" 0x06C45D188009454FL (output 3)

let test_mix_avalanche () =
  (* Flipping one input bit should flip roughly half the output bits. *)
  let flips = ref 0 in
  let pairs = 64 in
  for bit = 0 to pairs - 1 do
    let a = Prng.Splitmix64.mix 0x12345678L in
    let b = Prng.Splitmix64.mix (Int64.logxor 0x12345678L (Int64.shift_left 1L bit)) in
    let diff = Int64.logxor a b in
    let rec popcount x acc =
      if x = 0L then acc else popcount (Int64.logand x (Int64.sub x 1L)) (acc + 1)
    in
    flips := !flips + popcount diff 0
  done;
  let mean = float_of_int !flips /. float_of_int pairs in
  Alcotest.(check bool)
    (Printf.sprintf "mean flipped bits %.1f in [24,40]" mean)
    true
    (mean > 24.0 && mean < 40.0)

(* ------------------------------------------------------------------ *)
(* Xoshiro256                                                          *)

let test_xoshiro_deterministic () =
  let a = Prng.Xoshiro256.create 5L and b = Prng.Xoshiro256.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Xoshiro256.next a) (Prng.Xoshiro256.next b)
  done

let test_xoshiro_known_values () =
  (* xoshiro256** with state (1,2,3,4): first outputs from the reference
     implementation. *)
  let g = Prng.Xoshiro256.of_state (1L, 2L, 3L, 4L) in
  Alcotest.(check int64) "first" 11520L (Prng.Xoshiro256.next g);
  Alcotest.(check int64) "second" 0L (Prng.Xoshiro256.next g);
  Alcotest.(check int64) "third" 1509978240L (Prng.Xoshiro256.next g)

(* Known-answer pins for the seeded generator: every stream in the
   repository (worlds, trials, churn trajectories, serve shuffles) reads
   these sequences, so a change to the state layout or arithmetic must
   leave each of them bit-identical. *)

let check_outputs name g expected =
  List.iteri
    (fun i want ->
      Alcotest.(check int64) (Printf.sprintf "%s output %d" name i) want
        (Prng.Xoshiro256.next g))
    expected

let test_xoshiro_create_pins () =
  List.iter
    (fun (seed, expected) ->
      check_outputs (Printf.sprintf "create %Ld" seed) (Prng.Xoshiro256.create seed)
        expected)
    [
      ( 0L,
        [ 0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L;
          0x6AA594F1262D2D2CL; 0xBBA5AD4A1F842E59L; 0xFFEF8375D9EBCACAL;
          0x6C160DEED2F54C98L; 0x8920AD648FC30A3FL ] );
      ( 1L,
        [ 0xB3F2AF6D0FC710C5L; 0x853B559647364CEAL; 0x92F89756082A4514L;
          0x642E1C7BC266A3A7L; 0xB27A48E29A233673L; 0x24C123126FFDA722L;
          0x123004EF8DF510E6L; 0x61954DCC47B1E89DL ] );
      ( -1L,
        [ 0x8F5520D52A7EAD08L; 0xC476A018CAA1802DL; 0x81DE31C0D260469EL;
          0xBF658D7E065F3C2FL; 0x913593FDA1BCA32AL; 0xBB535E93941BA525L;
          0x5ECDA415C3C6DFDEL; 0xC487398FC9DE9AE2L ] );
      ( 0xDEADBEEFL,
        [ 0xC5555444A74D7E83L; 0x65C30D37B4B16E38L; 0x54F773200A4EFA23L;
          0x429AED75FB958AF7L; 0xFB0E1DD69C255B2EL; 0x9D6D02EC58814A27L;
          0xF4199B9DA2E4B2A3L; 0x54BC5B2C11A4540AL ] );
    ]

let test_xoshiro_derived_draw_pins () =
  let g = Prng.Xoshiro256.create 42L in
  List.iteri
    (fun i want ->
      Alcotest.(check int64) (Printf.sprintf "next_float %d bits" i)
        (Int64.bits_of_float want)
        (Int64.bits_of_float (Prng.Xoshiro256.next_float g)))
    [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1 ];
  let g = Prng.Xoshiro256.create 42L in
  Alcotest.(check (list bool)) "next_bool"
    [ false; false; true; true; true; true; true; true; true; true; true; false;
      true; false; true; true ]
    (List.init 16 (fun _ -> Prng.Xoshiro256.next_bool g));
  List.iter
    (fun (bound, expected) ->
      let g = Prng.Xoshiro256.create 42L in
      Alcotest.(check (list int)) (Printf.sprintf "next_int_in %d" bound) expected
        (List.init 6 (fun _ -> Prng.Xoshiro256.next_int_in g bound)))
    [
      (1, [ 0; 0; 0; 0; 0; 0 ]);
      (3, [ 1; 0; 0; 1; 2; 0 ]);
      (1000, [ 453; 671; 616; 40; 921; 142 ]);
      ( 1 lsl 40,
        [ 874076942789; 419216772767; 878563632744; 351129098280; 137316997017;
          327497438350 ] );
    ]

let test_xoshiro_jump_and_copy_pins () =
  let g = Prng.Xoshiro256.create 5L in
  Prng.Xoshiro256.jump g;
  check_outputs "after jump" g
    [ 0x293C8FEF77AC8C03L; 0x331920439BB93680L; 0xA9EF27C549382A2CL;
      0xD2ABEFD7067932F0L ];
  (* Draining the copy first must leave the source where it was. *)
  let source = Prng.Xoshiro256.create 9L in
  ignore (Prng.Xoshiro256.next source : int64);
  let copy = Prng.Xoshiro256.copy source in
  let expected = [ 0x40619B85D152FBF9L; 0x21E90BC830805B17L; 0xBB91DCA2EDEE4C4CL ] in
  check_outputs "copy" copy expected;
  check_outputs "source after copy drained" source expected

let test_xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state (0L, 0L, 0L, 0L)))

let test_xoshiro_jump_changes_stream () =
  let a = Prng.Xoshiro256.create 5L in
  let b = Prng.Xoshiro256.copy a in
  Prng.Xoshiro256.jump b;
  let collisions = ref 0 in
  for _ = 1 to 100 do
    if Prng.Xoshiro256.next a = Prng.Xoshiro256.next b then incr collisions
  done;
  Alcotest.(check int) "no collisions" 0 !collisions

let test_xoshiro_uniformity () =
  (* Rough chi-square on 16 buckets: with 16000 draws the statistic has
     mean 15; reject only wild deviations. *)
  let g = Prng.Xoshiro256.create 123L in
  let buckets = Array.make 16 0 in
  let draws = 16000 in
  for _ = 1 to draws do
    let b = Prng.Xoshiro256.next_int_in g 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int draws /. 16.0 in
  let chi2 =
    Array.fold_left
      (fun acc count ->
        let diff = float_of_int count -. expected in
        acc +. (diff *. diff /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f < 50" chi2) true (chi2 < 50.0)

let test_xoshiro_bool_balance () =
  let g = Prng.Xoshiro256.create 77L in
  let trues = ref 0 in
  for _ = 1 to 10000 do
    if Prng.Xoshiro256.next_bool g then incr trues
  done;
  Alcotest.(check bool) "balanced" true (!trues > 4700 && !trues < 5300)

(* ------------------------------------------------------------------ *)
(* Coin                                                                *)

let test_coin_deterministic () =
  for id = 0 to 100 do
    check_float "same coin" (Prng.Coin.uniform ~seed:9L id) (Prng.Coin.uniform ~seed:9L id)
  done

let test_coin_monotone_in_p () =
  (* If a coin is open at p it must be open at p' >= p. *)
  for id = 0 to 500 do
    let open_at p = Prng.Coin.bernoulli ~seed:33L ~p id in
    if open_at 0.3 then Alcotest.(check bool) "monotone" true (open_at 0.5);
    if open_at 0.5 then Alcotest.(check bool) "monotone" true (open_at 0.9)
  done

let test_coin_rate () =
  let opens = ref 0 in
  let trials = 20000 in
  for id = 0 to trials - 1 do
    if Prng.Coin.bernoulli ~seed:17L ~p:0.25 id then incr opens
  done;
  let rate = float_of_int !opens /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.25" rate) true
    (rate > 0.23 && rate < 0.27)

let test_coin_seed_independence () =
  let agree = ref 0 in
  let trials = 10000 in
  for id = 0 to trials - 1 do
    let a = Prng.Coin.bernoulli ~seed:1L ~p:0.5 id in
    let b = Prng.Coin.bernoulli ~seed:2L ~p:0.5 id in
    if a = b then incr agree
  done;
  let rate = float_of_int !agree /. float_of_int trials in
  Alcotest.(check bool) "independent seeds agree ~half the time" true
    (rate > 0.47 && rate < 0.53)

let test_derive_distinct () =
  let seen = Hashtbl.create 64 in
  for label = 0 to 1000 do
    let derived = Prng.Coin.derive 99L label in
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen derived);
    Hashtbl.replace seen derived ()
  done

let bit_of bits i = Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* [bernoulli_fill] at the exact coin boundaries. The coin is [u < p],
   so at p = u the edge is closed, one ulp above it is open and one ulp
   below it is closed. For u < 1/2 an ulp is below 2^-53, so at
   p = succ u the product p·2^53 falls strictly between two integers:
   a fill that rounds its threshold down disagrees with the per-id coin
   there, and one that compares with [<=] disagrees at p = u. Random p
   never lands on a boundary, so the property test cannot tell those
   fills apart. Every case also checks OR semantics and the bits past
   [count]. *)
let test_coin_fill_boundaries () =
  let seed = 0x5EEDL in
  let check_fill ~p ~count ~len ~preset =
    let bits = Bytes.init len (fun j -> Char.chr (preset j)) in
    let before = Bytes.copy bits in
    Prng.Coin.bernoulli_fill ~seed ~p bits ~count;
    for i = 0 to (8 * len) - 1 do
      let want =
        bit_of before i || (i < count && Prng.Coin.bernoulli ~seed ~p i)
      in
      if bit_of bits i <> want then
        Alcotest.failf "p=%h count=%d len=%d: bit %d is %b" p count len i
          (not want)
    done
  in
  let below_half = ref 0 in
  for id = 0 to 63 do
    let u = Prng.Coin.uniform ~seed id in
    if u < 0.5 then incr below_half;
    Alcotest.(check bool) "closed at p = u" false (Prng.Coin.bernoulli ~seed ~p:u id);
    Alcotest.(check bool) "open at succ u" true
      (Prng.Coin.bernoulli ~seed ~p:(Float.succ u) id);
    Alcotest.(check bool) "closed at pred u" false
      (Prng.Coin.bernoulli ~seed ~p:(Float.pred u) id);
    List.iter
      (fun p ->
        check_fill ~p ~count:(id + 1) ~len:((id / 8) + 2) ~preset:(fun _ -> 0))
      [ u; Float.succ u; Float.pred u ]
  done;
  Alcotest.(check bool) "some uniforms below 1/2" true (!below_half >= 8);
  let presets = [ (fun _ -> 0); (fun _ -> 0xA5); (fun j -> (j * 37) land 0xFF) ] in
  List.iter
    (fun p ->
      List.iter
        (fun count ->
          List.iter
            (fun preset -> check_fill ~p ~count ~len:(((count + 7) / 8) + 2) ~preset)
            presets)
        [ 0; 1; 5; 7; 8; 9; 13; 64; 67 ])
    [ 0.0; 1.0; 0.3; Prng.Coin.uniform ~seed 5 ]

(* ------------------------------------------------------------------ *)
(* Stream                                                              *)

let test_stream_split_stable () =
  let root = Prng.Stream.create 4L in
  let a = Prng.Stream.split root 7 and b = Prng.Stream.split root 7 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same child" (Prng.Stream.int64 a) (Prng.Stream.int64 b)
  done

let test_stream_split_label_sensitivity () =
  let root = Prng.Stream.create 4L in
  let a = Prng.Stream.split root 1 and b = Prng.Stream.split root 2 in
  Alcotest.(check bool) "children differ" true
    (Prng.Stream.int64 a <> Prng.Stream.int64 b)

let test_stream_shuffle_permutation () =
  let t = Prng.Stream.create 8L in
  let a = Array.init 100 (fun i -> i) in
  Prng.Stream.shuffle_in_place t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_stream_split_and_shuffle_pins () =
  let root = Prng.Stream.create 4L in
  List.iter
    (fun (label, expected) ->
      let child = Prng.Stream.split root label in
      List.iteri
        (fun i want ->
          Alcotest.(check int64) (Printf.sprintf "split %d output %d" label i) want
            (Prng.Stream.int64 child))
        expected)
    [
      ( 1,
        [ 0x958CB2F1B5861BB5L; 0x3964CFFFABC3FC78L; 0x982D71CC9F034D66L;
          0x86C298F1BA771C44L ] );
      ( 2,
        [ 0x13022658DF5B5C46L; 0x21257CF047C240B2L; 0xB9677D2CBF8377BEL;
          0x2499270313C7A083L ] );
    ];
  let a = Array.init 20 Fun.id in
  Prng.Stream.shuffle_in_place (Prng.Stream.create 8L) a;
  Alcotest.(check (array int)) "shuffle of 0..19"
    [| 13; 3; 16; 12; 4; 10; 19; 14; 5; 6; 0; 8; 18; 7; 2; 9; 17; 1; 11; 15 |]
    a

let test_stream_pick_member () =
  let t = Prng.Stream.create 8L in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    let x = Prng.Stream.pick t a in
    Alcotest.(check bool) "member" true (Array.mem x a)
  done

let test_stream_pick_empty () =
  let t = Prng.Stream.create 8L in
  Alcotest.check_raises "empty" (Invalid_argument "Stream.pick: empty array") (fun () ->
      ignore (Prng.Stream.pick t [||]))

(* ------------------------------------------------------------------ *)
(* Sample                                                              *)

let mean_of samples = Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let test_geometric_mean () =
  let t = Prng.Stream.create 21L in
  let p = 0.2 in
  let samples = Array.init 20000 (fun _ -> float_of_int (Prng.Sample.geometric t ~p)) in
  let mean = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "mean %.2f near 5" mean) true
    (mean > 4.7 && mean < 5.3)

let test_geometric_support () =
  let t = Prng.Stream.create 21L in
  for _ = 1 to 1000 do
    Alcotest.(check bool) ">= 1" true (Prng.Sample.geometric t ~p:0.9 >= 1)
  done

let test_geometric_p_one () =
  let t = Prng.Stream.create 21L in
  Alcotest.(check int) "always 1" 1 (Prng.Sample.geometric t ~p:1.0)

(* The shared geometric step against its reference at the reference's
   own boundaries. For each rate and each step k <= 400 of
   ceil (log1p (-u) / log_q), bisect the 53-bit uniform m at which the
   ceiling first exceeds k and compare the step with the reference at
   m - 3 .. m + 3. Random uniforms almost never land there, and there
   a ceiling of log (1 - u) / log_q alone disagrees with the reference
   at some points, so the step's fallback is what this pins. *)
let test_geometric_step_boundaries () =
  let uniform j = float_of_int j *. (1.0 /. 9007199254740992.0) in
  let top = (1 lsl 53) - 1 in
  let checked = ref 0 in
  List.iter
    (fun p ->
      let log_q = Float.log1p (-.p) in
      let reference j =
        let k = Float.ceil (Float.log1p (-.uniform j) /. log_q) in
        if k < 1.0 then 1 else int_of_float k
      in
      let k = ref 1 in
      while !k <= 400 && reference top > !k do
        (* Smallest m with reference m > k: reference 0 <= k < reference top. *)
        let lo = ref 0 and hi = ref top in
        while !hi - !lo > 1 do
          let mid = !lo + ((!hi - !lo) / 2) in
          if reference mid > !k then hi := mid else lo := mid
        done;
        for j = max 0 (!hi - 3) to min top (!hi + 3) do
          let got = Prng.Sample.geometric_step ~log_q (uniform j) in
          if got <> reference j then
            Alcotest.failf "p=%g step %d: u=%h gives %d, reference %d" p !k (uniform j)
              got (reference j);
          incr checked
        done;
        incr k
      done)
    [ 0.001; 0.02; 0.05; 0.1; 0.2; 0.3 ];
  Alcotest.(check bool) (Printf.sprintf "%d points checked" !checked) true
    (!checked > 12_000)

let test_geometric_step_clamps () =
  let log_q = Float.log1p (-0.5) in
  Alcotest.(check int) "u = 0" 1 (Prng.Sample.geometric_step ~log_q 0.0);
  Alcotest.(check int) "p = 1" 1
    (Prng.Sample.geometric_step ~log_q:Float.neg_infinity 0.75);
  Alcotest.(check int) "past 2^30 - 1" (max_int / 4)
    (Prng.Sample.geometric_step ~log_q:(Float.log1p (-1e-12)) 0.5);
  Alcotest.(check int) "non-finite" (max_int / 4)
    (Prng.Sample.geometric_step ~log_q:(-0.0) 0.5);
  (* p = 1 draws nothing: the generator is where it was. *)
  let g = Prng.Xoshiro256.create 3L and h = Prng.Xoshiro256.create 3L in
  Alcotest.(check int) "draw at p = 1" 1
    (Prng.Sample.geometric_draw g ~log_q:Float.neg_infinity);
  Alcotest.(check int64) "no draw" (Prng.Xoshiro256.next h) (Prng.Xoshiro256.next g)

let test_binomial_mean () =
  let t = Prng.Stream.create 22L in
  let samples = Array.init 5000 (fun _ -> float_of_int (Prng.Sample.binomial t ~n:100 ~p:0.3)) in
  let mean = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "mean %.2f near 30" mean) true
    (mean > 29.0 && mean < 31.0)

let test_binomial_extremes () =
  let t = Prng.Stream.create 22L in
  Alcotest.(check int) "p=0" 0 (Prng.Sample.binomial t ~n:50 ~p:0.0);
  Alcotest.(check int) "p=1" 50 (Prng.Sample.binomial t ~n:50 ~p:1.0);
  Alcotest.(check int) "n=0" 0 (Prng.Sample.binomial t ~n:0 ~p:0.5)

let test_binomial_high_p () =
  let t = Prng.Stream.create 23L in
  let samples = Array.init 5000 (fun _ -> float_of_int (Prng.Sample.binomial t ~n:40 ~p:0.9)) in
  let mean = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "mean %.2f near 36" mean) true
    (mean > 35.3 && mean < 36.7)

let test_exponential_mean () =
  let t = Prng.Stream.create 24L in
  let samples = Array.init 20000 (fun _ -> Prng.Sample.exponential t ~rate:2.0) in
  let mean = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "mean %.3f near 0.5" mean) true
    (mean > 0.48 && mean < 0.52)

let test_poisson_mean_small () =
  let t = Prng.Stream.create 25L in
  let samples = Array.init 20000 (fun _ -> float_of_int (Prng.Sample.poisson t ~mean:3.0)) in
  let mean = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "mean %.2f near 3" mean) true
    (mean > 2.9 && mean < 3.1)

let test_poisson_mean_large () =
  let t = Prng.Stream.create 26L in
  let samples = Array.init 5000 (fun _ -> float_of_int (Prng.Sample.poisson t ~mean:100.0)) in
  let mean = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "mean %.1f near 100" mean) true
    (mean > 98.0 && mean < 102.0)

let test_distinct_pair () =
  let t = Prng.Stream.create 27L in
  for _ = 1 to 1000 do
    let a, b = Prng.Sample.distinct_pair t 10 in
    Alcotest.(check bool) "distinct in range" true
      (a <> b && a >= 0 && a < 10 && b >= 0 && b < 10)
  done

let test_subset_indices () =
  let t = Prng.Stream.create 28L in
  for _ = 1 to 200 do
    let s = Prng.Sample.subset_indices t ~n:30 ~k:10 in
    Alcotest.(check int) "size" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "sorted" sorted s;
    Array.iter (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < 30)) s;
    let distinct = Hashtbl.create 16 in
    Array.iter (fun x -> Hashtbl.replace distinct x ()) s;
    Alcotest.(check int) "distinct" 10 (Hashtbl.length distinct)
  done

let test_subset_extremes () =
  let t = Prng.Stream.create 28L in
  Alcotest.(check int) "k=0" 0 (Array.length (Prng.Sample.subset_indices t ~n:5 ~k:0));
  Alcotest.(check (array int)) "k=n" (Array.init 5 (fun i -> i))
    (Prng.Sample.subset_indices t ~n:5 ~k:5)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"coin uniform in [0,1)" ~count:500
      (pair int64 small_nat)
      (fun (seed, id) ->
        let u = Prng.Coin.uniform ~seed id in
        u >= 0.0 && u < 1.0);
    Test.make ~name:"coin monotone in p" ~count:500
      (triple int64 small_nat (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
      (fun (seed, id, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        (not (Prng.Coin.bernoulli ~seed ~p:lo id)) || Prng.Coin.bernoulli ~seed ~p:hi id);
    Test.make ~name:"int_in stays in bounds" ~count:500
      (pair int64 (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let g = Prng.Xoshiro256.create seed in
        let x = Prng.Xoshiro256.next_int_in g bound in
        x >= 0 && x < bound);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair int64 (list small_nat))
      (fun (seed, xs) ->
        let t = Prng.Stream.create seed in
        let a = Array.of_list xs in
        Prng.Stream.shuffle_in_place t a;
        List.sort compare (Array.to_list a) = List.sort compare xs);
    Test.make ~name:"bernoulli_fill = pointwise bernoulli" ~count:200
      (triple int64 (float_bound_inclusive 1.0) (int_bound 300))
      (fun (seed, p, n) ->
        let bits = Bytes.make ((n + 7) / 8) '\000' in
        Prng.Coin.bernoulli_fill ~seed ~p bits ~count:n;
        let ok = ref true in
        for i = 0 to n - 1 do
          let b = Char.code (Bytes.get bits (i / 8)) land (1 lsl (i mod 8)) <> 0 in
          if b <> Prng.Coin.bernoulli ~seed ~p i then ok := false
        done;
        !ok);
    Test.make ~name:"split is a pure function of (seed, label)" ~count:200
      (pair int64 small_nat)
      (fun (seed, label) ->
        let r1 = Prng.Stream.create seed and r2 = Prng.Stream.create seed in
        (* Advancing r1 must not change what split returns. *)
        ignore (Prng.Stream.int64 r1);
        let a = Prng.Stream.split r1 label and b = Prng.Stream.split r2 label in
        Prng.Stream.int64 a = Prng.Stream.int64 b);
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          case "known values" test_splitmix_known_values;
          case "mix avalanche" test_mix_avalanche;
        ] );
      ( "xoshiro256",
        [
          case "deterministic" test_xoshiro_deterministic;
          case "known values" test_xoshiro_known_values;
          case "create pins" test_xoshiro_create_pins;
          case "derived draw pins" test_xoshiro_derived_draw_pins;
          case "jump and copy pins" test_xoshiro_jump_and_copy_pins;
          case "zero state rejected" test_xoshiro_zero_state_rejected;
          case "jump" test_xoshiro_jump_changes_stream;
          case "uniformity" test_xoshiro_uniformity;
          case "bool balance" test_xoshiro_bool_balance;
        ] );
      ( "coin",
        [
          case "deterministic" test_coin_deterministic;
          case "monotone in p" test_coin_monotone_in_p;
          case "rate" test_coin_rate;
          case "seed independence" test_coin_seed_independence;
          case "derive distinct" test_derive_distinct;
          case "fill boundaries" test_coin_fill_boundaries;
        ] );
      ( "stream",
        [
          case "split stable" test_stream_split_stable;
          case "split labels" test_stream_split_label_sensitivity;
          case "shuffle permutation" test_stream_shuffle_permutation;
          case "split and shuffle pins" test_stream_split_and_shuffle_pins;
          case "pick member" test_stream_pick_member;
          case "pick empty" test_stream_pick_empty;
        ] );
      ( "sample",
        [
          case "geometric mean" test_geometric_mean;
          case "geometric support" test_geometric_support;
          case "geometric p=1" test_geometric_p_one;
          case "geometric step boundaries" test_geometric_step_boundaries;
          case "geometric step clamps" test_geometric_step_clamps;
          case "binomial mean" test_binomial_mean;
          case "binomial extremes" test_binomial_extremes;
          case "binomial high p" test_binomial_high_p;
          case "exponential mean" test_exponential_mean;
          case "poisson small" test_poisson_mean_small;
          case "poisson large" test_poisson_mean_large;
          case "distinct pair" test_distinct_pair;
          case "subset indices" test_subset_indices;
          case "subset extremes" test_subset_extremes;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
