type curve = { size : int; points : (float * float) list }

let interpolate curve x =
  match curve.points with
  | [] | [ _ ] -> invalid_arg "Scaling.interpolate: need at least two points"
  | (x0, y0) :: _ when x <= x0 -> y0
  | points ->
      let rec walk = function
        | [ (_, y) ] -> y
        | (xa, ya) :: ((xb, yb) :: _ as rest) ->
            if x <= xb then ya +. ((x -. xa) /. (xb -. xa) *. (yb -. ya)) else walk rest
        | [] -> assert false
      in
      walk points

let crossing a b =
  (* Difference of the interpolated curves on the union grid; bisect
     inside the first sign-changing interval. *)
  let grid =
    List.sort_uniq compare (List.map fst a.points @ List.map fst b.points)
  in
  let difference x = interpolate a x -. interpolate b x in
  let rec find_bracket = function
    | x1 :: (x2 :: _ as rest) ->
        let d1 = difference x1 and d2 = difference x2 in
        if d1 = 0.0 then Some (x1, x1)
        else if d1 *. d2 < 0.0 then Some (x1, x2)
        else find_bracket rest
    | [ x ] -> if difference x = 0.0 then Some (x, x) else None
    | [] -> None
  in
  match find_bracket grid with
  | None -> None
  | Some (lo, hi) when lo = hi -> Some lo
  | Some (lo, hi) ->
      let rec bisect lo hi iterations =
        if iterations = 0 then (lo +. hi) /. 2.0
        else begin
          let mid = (lo +. hi) /. 2.0 in
          if difference lo *. difference mid <= 0.0 then bisect lo mid (iterations - 1)
          else bisect mid hi (iterations - 1)
        end
      in
      Some (bisect lo hi 40)

let crossings curves =
  let sorted = List.sort (fun a b -> compare a.size b.size) curves in
  let rec pairwise = function
    | a :: (b :: _ as rest) -> (
        match crossing a b with
        | Some x -> x :: pairwise rest
        | None -> pairwise rest)
    | [ _ ] | [] -> []
  in
  pairwise sorted

let estimate_threshold curves =
  match crossings curves with
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))
