(* One loader/reporter for the whole artifact family. Each artifact is
   sniffed by its schema tag, parsed into a small normalized form, and
   validated on the way in — [load] refuses documents that miss
   required fields, so "obs validate" is just a successful load.
   Metrics and telemetry normalize into the same [table] shape, which
   is what lets report/diff/aggregate share one implementation. *)

type table = {
  counters : (string * float) list;  (* name-sorted *)
  hists : (string * Hist.t) list;  (* name-sorted *)
}

type artifact =
  | Trace of Trace.Replay.run list
  | Metrics of table
  | Telemetry of {
      beats : int;
      uptime_s : float;
      seq_missing : int;  (* heartbeats lost between consecutive lines *)
      seq_reordered : int;  (* lines whose seq did not advance *)
      table : table;
    }
  | Profile of Timing.tree list
  | Ledger of Ledger.record list

type kind = [ `Trace | `Metrics | `Telemetry | `Profile | `Ledger ]

let kind = function
  | Trace _ -> `Trace
  | Metrics _ -> `Metrics
  | Telemetry _ -> `Telemetry
  | Profile _ -> `Profile
  | Ledger _ -> `Ledger

let kind_name = function
  | `Trace -> "trace/v1"
  | `Metrics -> "metrics/v1"
  | `Telemetry -> "telemetry/v1"
  | `Profile -> "profile/v1"
  | `Ledger -> "runledger/v1"

let table = function
  | Metrics t | Telemetry { table = t; _ } -> Some t
  | Trace _ | Profile _ | Ledger _ -> None

(* ------------------------------------------------------------------ *)
(* Parsing helpers.                                                    *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let num_field name j =
  let* v = field name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let int_field name j =
  let* v = field name j in
  match Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S is not an integer" name)

let obj_fields what = function
  | Json.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "%s is not an object" what)

let by_name (a, _) (b, _) = String.compare a b

let parse_table ~counters_key ~suffix j =
  let* counters_obj = field counters_key j in
  let* counter_fields = obj_fields (Printf.sprintf "%S" counters_key) counters_obj in
  let* counters =
    List.fold_left
      (fun acc (name, v) ->
        let* acc = acc in
        match Json.to_float v with
        | Some f -> Ok ((name, f) :: acc)
        | None -> Error (Printf.sprintf "%s %S is not a number" counters_key name))
      (Ok []) counter_fields
  in
  let* hists_obj = field "histograms" j in
  let* hist_fields = obj_fields "\"histograms\"" hists_obj in
  let* hists =
    List.fold_left
      (fun acc (name, v) ->
        let* acc = acc in
        match Hist.of_json ~suffix v with
        | Ok h -> Ok ((name, h) :: acc)
        | Error m -> Error (Printf.sprintf "histogram %S: %s" name m))
      (Ok []) hist_fields
  in
  Ok { counters = List.sort by_name counters; hists = List.sort by_name hists }

let parse_metrics j =
  Result.map (fun t -> Metrics t) (parse_table ~counters_key:"counters" ~suffix:"" j)

let merge_tables a b =
  let rec merge_assoc combine xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ra, (kb, vb) :: rb ->
        let c = String.compare ka kb in
        if c < 0 then (ka, va) :: merge_assoc combine ra ys
        else if c > 0 then (kb, vb) :: merge_assoc combine xs rb
        else (ka, combine va vb) :: merge_assoc combine ra rb
  in
  {
    counters = merge_assoc ( +. ) a.counters b.counters;
    hists = merge_assoc Hist.merge a.hists b.hists;
  }

let parse_telemetry_line j = parse_table ~counters_key:"gauges" ~suffix:"_ns" j

(* Heartbeat [seq] values advance by exactly one per emitted line (the
   emitter only bumps on emission): a jump of k > 1 means k - 1 lines
   were lost, a non-advance means reordering. Lines without a seq
   (legacy files) count as neither. *)
let seq_gap prev seq =
  match (prev, seq) with
  | Some p, Some s when s > p + 1 -> (s - p - 1, 0)
  | Some p, Some s when s <= p -> (0, 1)
  | _ -> (0, 0)

(* One heartbeat line, decomposed: the monotonic seq (absent on legacy
   files), uptime, the optional session label, and the gauge/histogram
   table. Shared with [Top], which renders heartbeats one at a time. *)
let parse_heartbeat j =
  let* seq =
    match Json.member "seq" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match Json.to_int v with
        | Some n -> Ok (Some n)
        | None -> Error "field \"seq\" is not an integer")
  in
  let* uptime_s = num_field "uptime_s" j in
  let session = Option.bind (Json.member "session" j) Json.to_str in
  let* table = parse_telemetry_line j in
  Ok (seq, uptime_s, session, table)

let parse_telemetry lines =
  (* Heartbeats are cumulative snapshots of the same registry: the last
     line is the run's final state, earlier ones only add the beat
     count — so "merge" is take-latest, not sum. [seq_gap] audits the
     seq values. *)
  let rec loop i last prev_seq missing reordered = function
    | [] -> (
        match last with
        | None -> Error "no telemetry lines"
        | Some (uptime_s, table, beats) ->
            Ok
              (Telemetry
                 {
                   beats;
                   uptime_s;
                   seq_missing = missing;
                   seq_reordered = reordered;
                   table;
                 }))
    | line :: rest -> (
        match Json.of_string line with
        | Error m -> Error (Printf.sprintf "line %d: %s" i m)
        | Ok j -> (
            match parse_heartbeat j with
            | Error m -> Error (Printf.sprintf "line %d: %s" i m)
            | Ok (seq, uptime_s, _session, table) ->
                let beats =
                  match last with None -> 1 | Some (_, _, n) -> n + 1
                in
                let lost, reorders = seq_gap prev_seq seq in
                loop (i + 1)
                  (Some (uptime_s, table, beats))
                  (if seq = None then prev_seq else seq)
                  (missing + lost) (reordered + reorders) rest))
  in
  loop 1 None None 0 0 lines

let rec parse_span j =
  let* span_name =
    let* v = field "name" j in
    match Json.to_str v with
    | Some s -> Ok s
    | None -> Error "span \"name\" is not a string"
  in
  match
    let* calls = int_field "count" j in
    let* total = num_field "total_s" j in
    let* self = num_field "self_s" j in
    let* children =
      match Json.member "children" j with
      | None -> Ok []
      | Some v -> (
          match Json.to_list v with
          | Some kids -> parse_spans kids
          | None -> Error "\"children\" is not a list")
    in
    Ok { Timing.span_name; calls; total; self; children }
  with
  | Ok n -> Ok n
  | Error m -> Error (Printf.sprintf "span %S: %s" span_name m)

and parse_spans js =
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      let* n = parse_span j in
      Ok (n :: acc))
    (Ok []) js
  |> Result.map List.rev

let parse_profile j =
  let* spans = field "spans" j in
  match Json.to_list spans with
  | None -> Error "\"spans\" is not a list"
  | Some js ->
      let* trees = parse_spans js in
      Ok (Profile trees)

let parse_trace lines =
  let* runs = Trace.Replay.parse lines in
  let verdict = Trace.Replay.check runs in
  if Trace.Replay.ok verdict then Ok (Trace runs)
  else
    Error
      (Printf.sprintf "replay check failed: %d probe mismatches, %d count errors"
         (List.length verdict.Trace.Replay.mismatches)
         (List.length verdict.Trace.Replay.count_errors))

let parse_ledger lines =
  (* Loading IS validation for the ledger too: beyond the schema, every
     recorded artifact digest is cross-checked against the file on disk
     so `obs validate` catches tampered or stale artifacts (exit 2). A
     torn final line (crashed writer) is tolerated, like checkpoints. *)
  let* records, _torn = Ledger.parse_lines lines in
  if records = [] then Error "no ledger records"
  else
    match Ledger.verify records with
    | [] -> Ok (Ledger records)
    | errs -> Error (String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* Loading.                                                            *)

let non_empty_lines content =
  String.split_on_char '\n' content
  |> List.filter (fun l -> String.trim l <> "")

let parse doc lines =
  match Option.bind (Json.member "schema" doc) Json.to_str with
  | None -> Error "line 1 has no \"schema\" tag"
  | Some "trace/v1" -> parse_trace lines
  | Some "metrics/v1" -> parse_metrics doc
  | Some "profile/v1" -> parse_profile doc
  | Some "telemetry/v1" -> parse_telemetry lines
  | Some "runledger/v1" -> parse_ledger lines
  | Some s -> Error (Printf.sprintf "unknown schema %S" s)

let load path =
  let* content =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let annotate = Result.map_error (fun m -> Printf.sprintf "%s: %s" path m) in
  (* The whole file as one (possibly pretty-printed) document first,
     then JSONL, where the first line's schema picks the parser. *)
  annotate
    (match Json.of_string content with
    | Ok doc -> parse doc [ content ]
    | Error _ -> (
        match non_empty_lines content with
        | [] -> Error "empty file"
        | first :: _ as lines ->
            let* doc =
              Result.map_error (fun m -> "line 1: " ^ m) (Json.of_string first)
            in
            parse doc lines))

(* ------------------------------------------------------------------ *)
(* Shared formatting.                                                  *)

let pp_hist_rows ppf hists =
  if hists <> [] then begin
    let width =
      List.fold_left (fun acc (n, _) -> Stdlib.max acc (String.length n)) 9 hists
    in
    Format.fprintf ppf "  %-*s %10s %10s %10s %10s %10s %5s@." width "histogram"
      "count" "p50" "p95" "p99" "max" "unit";
    List.iter
      (fun (name, (h : Hist.t)) ->
        (* Latency-style names carry nanoseconds; report them in ms. *)
        let ns = String.ends_with ~suffix:"_ns" name in
        let cell v = Printf.sprintf "%.3g" (if ns then v /. 1e6 else v) in
        let q p = Option.fold ~none:"-" ~some:cell (Hist.quantile h p) in
        Format.fprintf ppf "  %-*s %10d %10s %10s %10s %10s %5s@." width name
          h.count (q 0.5) (q 0.95) (q 0.99)
          (if h.count = 0 then "-" else cell h.max)
          (if ns then "ms" else ""))
      hists
  end

(* Per-domain gauges [<prefix>.<slot>.<leaf>] folded into one row per
   slot: the values of [leaves] in order (0 when absent), slot-sorted. *)
let slot_rows ~prefix ~leaves gauges =
  let rows = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match String.split_on_char '.' name with
      | [ a; b; slot; leaf ] when a ^ "." ^ b = prefix -> (
          match (int_of_string_opt slot, List.find_index (String.equal leaf) leaves) with
          | Some slot, Some k ->
              let row =
                match Hashtbl.find_opt rows slot with
                | Some r -> r
                | None ->
                    let r = Array.make (List.length leaves) 0. in
                    Hashtbl.replace rows slot r;
                    r
              in
              row.(k) <- v
          | _ -> ())
      | _ -> ())
    gauges;
  Hashtbl.fold (fun slot row acc -> (slot, row) :: acc) rows [] |> List.sort compare

let pp_utilization ppf gauges =
  match slot_rows ~prefix:"pool.domain" ~leaves:[ "busy_s"; "wall_s"; "tasks" ] gauges with
  | [] -> ()
  | rows ->
      Format.fprintf ppf "  pool utilization (slot 0 = caller)@.";
      Format.fprintf ppf "  %6s %12s %12s %14s %10s@." "domain" "busy s"
        "wall s" "utilization %" "tasks";
      List.iter
        (fun (slot, r) ->
          let busy = r.(0) and wall = r.(1) in
          let util = if wall > 0. then 100. *. busy /. wall else 0. in
          Format.fprintf ppf "  %6d %12.4f %12.4f %14.1f %10.0f@." slot busy
            wall util r.(2))
        rows

let pp_counters ppf label counters =
  if counters <> [] then begin
    let width =
      List.fold_left
        (fun acc (n, _) -> Stdlib.max acc (String.length n))
        (String.length label) counters
    in
    Format.fprintf ppf "  %-*s %14s@." width label "value";
    List.iter
      (fun (name, v) ->
        if Float.is_integer v && Float.abs v < 1e15 then
          Format.fprintf ppf "  %-*s %14.0f@." width name v
        else Format.fprintf ppf "  %-*s %14.4f@." width name v)
      counters
  end

let pp_table ppf ~label t =
  (* An empty or header-only artifact renders an explicit marker, not a
     silently empty table — "nothing was recorded" is a finding. *)
  if t.counters = [] && t.hists = [] then
    Format.fprintf ppf "  (no samples)@."
  else begin
    pp_counters ppf label t.counters;
    pp_utilization ppf t.counters;
    pp_hist_rows ppf t.hists
  end

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)

let rec pp_span ppf depth (t : Timing.tree) =
  Format.fprintf ppf "  %s%-*s %8d %12.2f %12.2f@."
    (String.make (2 * depth) ' ')
    (Stdlib.max 1 (32 - (2 * depth)))
    t.span_name t.calls (t.total *. 1e3) (t.self *. 1e3);
  List.iter (pp_span ppf (depth + 1)) t.children

let report ppf = function
  | Metrics t ->
      Format.fprintf ppf "metrics/v1@.";
      pp_table ppf ~label:"counter" t
  | Telemetry { beats; uptime_s; seq_missing; seq_reordered; table } ->
      Format.fprintf ppf "telemetry/v1: %d heartbeat%s, uptime %.3f s@." beats
        (if beats = 1 then "" else "s")
        uptime_s;
      if seq_missing > 0 || seq_reordered > 0 then
        Format.fprintf ppf
          "  WARNING: heartbeat seq gaps — %d missing, %d reordered line(s)@."
          seq_missing seq_reordered;
      pp_table ppf ~label:"gauge" table
  | Profile trees ->
      Format.fprintf ppf "profile/v1@.";
      Format.fprintf ppf "  %-32s %8s %12s %12s@." "span" "calls" "total ms"
        "self ms";
      List.iter (pp_span ppf 0) trees
  | Trace runs ->
      let v = Trace.Replay.check runs in
      Format.fprintf ppf
        "trace/v1: %d run%s, %d attempts, %d accepted, %d checked, %d \
         unverifiable — replay %s@."
        v.Trace.Replay.runs
        (if v.Trace.Replay.runs = 1 then "" else "s")
        v.Trace.Replay.attempts v.Trace.Replay.accepted v.Trace.Replay.checked
        v.Trace.Replay.unverifiable
        (if Trace.Replay.ok v then "ok" else "FAILED");
      if v.Trace.Replay.qspans > 0 then
        Format.fprintf ppf "  query spans: %d lifecycle event%s, %s@."
          v.Trace.Replay.qspans
          (if v.Trace.Replay.qspans = 1 then "" else "s")
          (if v.Trace.Replay.qspan_errors = [] then
             "ordering and exactly-once tally ok"
           else
             Printf.sprintf "%d violation(s)"
               (List.length v.Trace.Replay.qspan_errors))
  | Ledger records ->
      Format.fprintf ppf "runledger/v1: %d record%s, digests verified@."
        (List.length records)
        (if List.length records = 1 then "" else "s");
      Format.fprintf ppf "  %-12s %-14s %5s %5s %9s %10s@." "subcommand"
        "config" "jobs" "exit" "wall s" "artifacts";
      List.iter
        (fun (r : Ledger.record) ->
          let short =
            if String.length r.Ledger.config_digest > 12 then
              String.sub r.Ledger.config_digest 0 12
            else r.Ledger.config_digest
          in
          Format.fprintf ppf "  %-12s %-14s %5d %5d %9.3f %10d@."
            r.Ledger.subcommand short r.Ledger.jobs r.Ledger.exit_code
            r.Ledger.wall_s
            (List.length r.Ledger.artifacts);
          List.iter
            (fun (a : Ledger.artifact) ->
              Format.fprintf ppf "    %s %s@." a.Ledger.digest a.Ledger.path)
            r.Ledger.artifacts)
        records

(* ------------------------------------------------------------------ *)
(* Aggregation and diff.                                               *)

let aggregate a b =
  match (a, b) with
  | Metrics x, Metrics y -> Ok (Metrics (merge_tables x y))
  | _ ->
      Error
        (Printf.sprintf "cannot aggregate %s with %s (only metrics/v1 merge)"
           (kind_name (kind a)) (kind_name (kind b)))

let diff_tables ppf xa xb =
  let names l = List.map fst l in
  let all =
    List.sort_uniq String.compare (names xa.counters @ names xb.counters)
  in
  let changed = ref 0 in
  List.iter
    (fun name ->
      let va = List.assoc_opt name xa.counters in
      let vb = List.assoc_opt name xb.counters in
      match (va, vb) with
      | Some a, Some b when a = b -> ()
      | _ ->
          incr changed;
          let s = function Some v -> Printf.sprintf "%.4g" v | None -> "-" in
          Format.fprintf ppf "  %-40s %14s -> %-14s@." name (s va) (s vb))
    all;
  let hall = List.sort_uniq String.compare (names xa.hists @ names xb.hists) in
  List.iter
    (fun name ->
      let ca = List.assoc_opt name xa.hists in
      let cb = List.assoc_opt name xb.hists in
      let count = function Some (h : Hist.t) -> h.count | None -> 0 in
      let sum = function Some (h : Hist.t) -> h.sum | None -> 0. in
      if count ca <> count cb || sum ca <> sum cb then begin
        incr changed;
        Format.fprintf ppf "  %-40s count %d -> %d, sum %.4g -> %.4g@." name
          (count ca) (count cb) (sum ca) (sum cb)
      end)
    hall;
  if !changed = 0 then Format.fprintf ppf "  identical@."

let diff ppf a b =
  match (a, b) with
  | Metrics x, Metrics y ->
      Ok (diff_tables ppf x y)
  | Telemetry x, Telemetry y ->
      Format.fprintf ppf "  uptime %.3f s -> %.3f s@." x.uptime_s y.uptime_s;
      if
        x.seq_missing + x.seq_reordered + y.seq_missing + y.seq_reordered > 0
      then
        Format.fprintf ppf
          "  heartbeat seq anomalies: %d missing/%d reordered -> %d \
           missing/%d reordered@."
          x.seq_missing x.seq_reordered y.seq_missing y.seq_reordered;
      Ok (diff_tables ppf x.table y.table)
  | Profile x, Profile y ->
      let fa = Timing.paths x and fb = Timing.paths y in
      let all =
        List.sort_uniq String.compare (List.map fst fa @ List.map fst fb)
      in
      let changed = ref 0 in
      List.iter
        (fun path ->
          let get l = List.assoc_opt path l in
          let total = function Some (t : Timing.tree) -> t.total | None -> 0. in
          let ta = total (get fa) and tb = total (get fb) in
          (* Wall clock never repeats exactly; only report meaningful
             movement (>1% and >0.1 ms). *)
          let delta = Float.abs (tb -. ta) in
          if delta > 1e-4 && delta > 0.01 *. Float.max ta tb then begin
            incr changed;
            Format.fprintf ppf "  %-40s total %.2f ms -> %.2f ms@." path
              (ta *. 1e3) (tb *. 1e3)
          end)
        all;
      if !changed = 0 then Format.fprintf ppf "  no significant span movement@.";
      Ok ()
  | Trace x, Trace y ->
      let vx = Trace.Replay.check x and vy = Trace.Replay.check y in
      Format.fprintf ppf
        "  attempts %d -> %d, accepted %d -> %d, checked %d -> %d@."
        vx.Trace.Replay.attempts vy.Trace.Replay.attempts
        vx.Trace.Replay.accepted vy.Trace.Replay.accepted
        vx.Trace.Replay.checked vy.Trace.Replay.checked;
      Ok ()
  | a, b ->
      Error
        (Printf.sprintf "cannot diff %s against %s" (kind_name (kind a))
           (kind_name (kind b)))

let folded_of_profile = function
  | Profile trees -> Ok (Timing.folded trees)
  | a -> Error (Printf.sprintf "not a profile/v1 artifact (%s)" (kind_name (kind a)))
