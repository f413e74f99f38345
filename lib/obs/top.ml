(* The rendering core of `faultroute top`: one telemetry/v1 heartbeat
   line in, one plain-text frame out. Pure — the CLI owns tailing,
   ANSI clearing and pacing, so every layout decision here is unit-
   testable and `--once`/`--replay` snapshots are deterministic given
   the heartbeat bytes. *)

type frame = {
  seq : int option;
  uptime_s : float;
  session : string option;
  table : Inspect.table;
}

let ( let* ) = Result.bind

let frame_of_line line =
  let* j = Json.of_string (String.trim line) in
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some "telemetry/v1" ->
      let* seq, uptime_s, session, table = Inspect.parse_heartbeat j in
      Ok { seq; uptime_s; session; table }
  | Some other -> Error (Printf.sprintf "not a telemetry/v1 line (%S)" other)
  | None -> Error "line has no \"schema\" tag"

let gap ~prev f = fst (Inspect.seq_gap prev.seq f.seq)

(* ------------------------------------------------------------------ *)
(* Rendering: obs report's tables, plus the run-progress, GC and heap
   rows only a live view wants.                                        *)

let mwords v = v /. 1e6

let render f =
  let buffer = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buffer in
  let t = f.table in
  let counter name = List.assoc_opt name t.Inspect.counters in
  Format.fprintf ppf "faultroute top — uptime %.3f s" f.uptime_s;
  (match f.seq with
  | Some n -> Format.fprintf ppf " · beat %d" n
  | None -> ());
  (match f.session with
  | Some s -> Format.fprintf ppf " · session %s" s
  | None -> ());
  Format.fprintf ppf "@.";
  (* Progress: the serve gauges, when this heartbeat came from a serve
     session. *)
  (match counter "serve.admitted" with
  | Some admitted ->
      let v name = Option.value (counter name) ~default:0. in
      Format.fprintf ppf
        "  progress: admitted %.0f · answered %.0f · rejected %.0f · queue \
         %.0f (peak %.0f)@."
        admitted (v "serve.answered") (v "serve.rejected")
        (v "serve.queue_depth")
        (v "serve.queue_depth_peak")
  | None -> ());
  Inspect.pp_utilization ppf t.Inspect.counters;
  (* GC pressure per domain slot, plus the process heap. *)
  (match
     Inspect.slot_rows ~prefix:"runtime.domain"
       ~leaves:
         [ "minor_collections"; "major_collections"; "promoted_words"; "allocated_words" ]
       t.Inspect.counters
   with
  | [] -> ()
  | rows ->
      Format.fprintf ppf "  gc (slot 0 = caller)@.";
      Format.fprintf ppf "  %6s %12s %12s %14s %10s@." "domain" "minor" "major"
        "promoted Mw" "alloc Mw";
      List.iter
        (fun (slot, r) ->
          Format.fprintf ppf "  %6d %12.0f %12.0f %14.2f %10.2f@." slot r.(0)
            r.(1) (mwords r.(2)) (mwords r.(3)))
        rows);
  (match counter "runtime.heap_words" with
  | Some heap ->
      Format.fprintf ppf "  heap: %.2f Mwords" (mwords heap);
      (match counter "runtime.top_heap_words" with
      | Some top -> Format.fprintf ppf " (peak %.2f)" (mwords top)
      | None -> ());
      (match counter "runtime.major_collections" with
      | Some majors -> Format.fprintf ppf " · %.0f major GCs" majors
      | None -> ());
      Format.fprintf ppf "@."
  | None -> ());
  (* Latency quantiles, one row per histogram (per-op serve latencies,
     pool task service and queue wait). *)
  Inspect.pp_hist_rows ppf t.Inspect.hists;
  Format.pp_print_flush ppf ();
  Buffer.contents buffer
