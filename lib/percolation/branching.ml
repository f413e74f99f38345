let check_p p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Branching: p outside [0,1]"

let survival_to_depth ~p k =
  check_p p;
  if k < 0 then invalid_arg "Branching.survival_to_depth: negative depth";
  let rec iterate i q = if i = 0 then q else iterate (i - 1) (1.0 -. ((1.0 -. (p *. q)) ** 2.0)) in
  iterate k 1.0

let survival ~p =
  check_p p;
  if p <= 0.5 then 0.0 else ((2.0 *. p) -. 1.0) /. (p *. p)

let extinction ~p = 1.0 -. survival ~p

let expected_total_progeny ~p =
  check_p p;
  if p >= 0.5 then infinity else 1.0 /. (1.0 -. (2.0 *. p))

let dual_parameter ~p =
  check_p p;
  if p <= 0.5 then invalid_arg "Branching.dual_parameter: need p > 1/2";
  p *. sqrt (extinction ~p)

let expected_failed_branch_size ~p =
  expected_total_progeny ~p:(dual_parameter ~p)

let double_tree_connection ~p ~n =
  check_p p;
  survival_to_depth ~p:(p *. p) n

let sample_progeny stream ~p ~max_nodes =
  check_p p;
  if max_nodes < 1 then invalid_arg "Branching.sample_progeny: max_nodes must be >= 1";
  (* Breadth-first generation: [alive] counts nodes whose children are
     still to be drawn; [total] counts nodes generated so far. *)
  let rec grow alive total =
    if total > max_nodes then `Truncated
    else if alive = 0 then `Extinct total
    else begin
      let children =
        (if Prng.Stream.bernoulli stream p then 1 else 0)
        + if Prng.Stream.bernoulli stream p then 1 else 0
      in
      grow (alive - 1 + children) (total + children)
    end
  in
  grow 1 1
