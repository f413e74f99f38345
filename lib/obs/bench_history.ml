type snapshot = {
  mode : string;
  commit : string option;
  timestamp : string option;
  metrics : (string * float) list;
}

let schema_v1 = "bench_percolation/v1"
let schema_v2 = "bench_percolation/v2"
let schema_v3 = "bench_percolation/v3"

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let* schema =
    match Option.bind (Json.member "schema" json) Json.to_str with
    | Some s -> Ok s
    | None -> Error "bench snapshot: missing schema"
  in
  let* () =
    if schema = schema_v1 || schema = schema_v2 || schema = schema_v3 then Ok ()
    else Error (Printf.sprintf "bench snapshot: unknown schema %S" schema)
  in
  let* mode =
    match Option.bind (Json.member "mode" json) Json.to_str with
    | Some m -> Ok m
    | None -> Error "bench snapshot: missing mode"
  in
  let commit = Option.bind (Json.member "commit" json) Json.to_str in
  let timestamp = Option.bind (Json.member "timestamp" json) Json.to_str in
  let* topologies =
    match Option.bind (Json.member "topologies" json) Json.to_list with
    | Some l -> Ok l
    | None -> Error "bench snapshot: missing topologies"
  in
  let* metrics =
    List.fold_left
      (fun acc entry ->
        let* acc = acc in
        match Option.bind (Json.member "name" entry) Json.to_str with
        | None -> Error "bench snapshot: topology without a name"
        | Some name ->
            let kernel_ns kernel field =
              Option.bind (Json.member kernel entry) (fun k ->
                  Option.bind (Json.member field k) Json.to_float)
              |> Option.map (fun ns ->
                     (Printf.sprintf "%s/%s.%s" name kernel field, ns))
            in
            let found =
              List.filter_map Fun.id
                [
                  kernel_ns "reveal_bfs" "cached_ns";
                  (* The bitset reveal engine's time, carried by v3
                     snapshots written before that engine was deleted;
                     absent from every other line. *)
                  kernel_ns "reveal_bfs" "bitset_ns";
                  kernel_ns "oracle_probe" "cached_ns";
                  kernel_ns "trial_run" "ns";
                  (* The churn-stepper row (every (edge, round) liveness
                     query under a renewal plan); absent on snapshots
                     written before churn landed. *)
                  kernel_ns "churn_step" "ns";
                ]
            in
            if found = [] then
              Error
                (Printf.sprintf "bench snapshot: no timings under %S" name)
            else Ok (List.rev_append found acc))
      (Ok []) topologies
  in
  Ok { mode; commit; timestamp; metrics = List.rev metrics }

let parse_lines lines =
  let ( let* ) r f = Result.bind r f in
  List.fold_left
    (fun acc (i, line) ->
      let* acc = acc in
      if String.trim line = "" then Ok acc
      else
        let* json =
          Result.map_error
            (Printf.sprintf "history line %d: %s" (i + 1))
            (Json.of_string line)
        in
        let* snapshot =
          Result.map_error
            (Printf.sprintf "history line %d: %s" (i + 1))
            (of_json json)
        in
        Ok (snapshot :: acc))
    (Ok [])
    (List.mapi (fun i l -> (i, l)) lines)
  |> Result.map List.rev

let trailing_baseline ~mode history =
  List.fold_left
    (fun acc snapshot -> if snapshot.mode = mode then Some snapshot else acc)
    None history
