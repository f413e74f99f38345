let success_rate ?jobs ~name stream ~trials ~event =
  if trials <= 0 then invalid_arg "Threshold.success_rate: trials must be positive";
  let rows =
    Runner.grid ?jobs ~name stream ~cells:1 ~trials (fun _ trial ->
        let seed = Prng.Coin.derive (Prng.Stream.seed stream) (trial + 1) in
        [| (if event ~seed then 1.0 else 0.0) |])
  in
  Runner.mean rows.(0) 0

let bisect ?jobs ?(trials_per_pivot = 40) ?(iterations = 12) ~name stream ~event ~lo
    ~hi =
  if lo >= hi then invalid_arg "Threshold.bisect: need lo < hi";
  let rec loop lo hi round =
    if round = 0 then (lo +. hi) /. 2.0
    else begin
      let pivot = (lo +. hi) /. 2.0 in
      let substream = Prng.Stream.split stream round in
      let rate =
        success_rate ?jobs
          ~name:(Printf.sprintf "%s;p=%.17g" name pivot)
          substream ~trials:trials_per_pivot
          ~event:(fun ~seed -> event ~p:pivot ~seed)
      in
      if rate >= 0.5 then loop lo pivot (round - 1) else loop pivot hi (round - 1)
    end
  in
  loop lo hi iterations
