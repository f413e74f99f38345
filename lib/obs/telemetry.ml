(* Wall-clock run telemetry: float gauges + nanosecond histograms
   behind one global mutex, emitted as [telemetry/v1] JSONL heartbeats.
   Strictly reporting-layer, like [Timing]: nothing here may influence
   result bytes. Hot paths that would contend on the mutex accumulate
   into a private [Hist.t] and [absorb] it once per unit of work. *)

let enabled = Atomic.make false

let[@inline] on () = Atomic.get enabled

(* ------------------------------------------------------------------ *)
(* The global registry.                                                *)

type cell = Gauge of float ref | Hist of Hist.t

let lock = Mutex.create ()
let cells : (string, cell) Hashtbl.t = Hashtbl.create 32
let started_at = ref 0.
let sink : (string -> unit) ref =
  ref (fun line ->
      output_string stderr line;
      flush stderr)
let interval_s = 1.0
let last_beat = ref neg_infinity

(* Heartbeats are numbered 1, 2, 3, ... per enable/reset. The counter
   bumps only when a line is actually emitted, so a well-formed
   telemetry file carries contiguous [seq] values — any gap means
   lines were lost after emission (truncation, a dropped pipe), which
   [Inspect] and [faultroute top] flag. *)
let seq = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enable () =
  locked (fun () ->
      started_at := Unix.gettimeofday ();
      last_beat := neg_infinity;
      seq := 0);
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let reset () =
  locked (fun () ->
      Hashtbl.reset cells;
      started_at := Unix.gettimeofday ();
      last_beat := neg_infinity;
      seq := 0)

let set_sink f = locked (fun () -> sink := f)

let gauge_cell name =
  match Hashtbl.find_opt cells name with
  | Some (Gauge r) -> r
  | Some (Hist _) -> invalid_arg ("Telemetry: " ^ name ^ " is a histogram")
  | None ->
      let r = ref 0. in
      Hashtbl.replace cells name (Gauge r);
      r

let hist_cell name =
  match Hashtbl.find_opt cells name with
  | Some (Hist h) -> h
  | Some (Gauge _) -> invalid_arg ("Telemetry: " ^ name ^ " is a gauge")
  | None ->
      let h = Hist.create () in
      Hashtbl.replace cells name (Hist h);
      h

let add_to name v =
  if on () then locked (fun () ->
      let r = gauge_cell name in
      r := !r +. v)

let set_gauge name v =
  if on () then locked (fun () -> gauge_cell name := v)

let max_gauge name v =
  if on () then locked (fun () ->
      let r = gauge_cell name in
      if v > !r then r := v)

let observe_ns name ns =
  if on () then locked (fun () -> Hist.add (hist_cell name) ns)

let absorb name (h : Hist.t) =
  if on () && h.Hist.count > 0 then
    locked (fun () -> Hist.absorb ~into:(hist_cell name) h)

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type view = {
  uptime_s : float;
  gauges : (string * float) list;
  hists : (string * Hist.t) list;
}

let hist_quantile_ns = Hist.quantile

let snapshot () =
  locked (fun () ->
      let uptime_s =
        if !started_at = 0. then 0. else Unix.gettimeofday () -. !started_at
      in
      let gauges, hists =
        Hashtbl.fold
          (fun name cell (gs, hs) ->
            match cell with
            | Gauge r -> ((name, !r) :: gs, hs)
            | Hist h -> (gs, (name, Hist.copy h) :: hs))
          cells ([], [])
      in
      let by_name (a, _) (b, _) = String.compare a b in
      {
        uptime_s;
        gauges = List.sort by_name gauges;
        hists = List.sort by_name hists;
      })

let to_json_line ?seq:seq_n ?(extra = []) (v : view) =
  let hist_json (name, (h : Hist.t)) =
    let ns v = if h.count = 0 then Json.Null else Json.Float v in
    let q p = Option.fold ~none:Json.Null ~some:ns (Hist.quantile h p) in
    ( name,
      Json.Obj
        [
          ("count", Json.Int h.count);
          ("sum_ns", Json.Float h.sum);
          ("min_ns", ns h.min);
          ("max_ns", ns h.max);
          ("p50_ns", q 0.5);
          ("p95_ns", q 0.95);
          ("p99_ns", q 0.99);
          ("buckets", Hist.buckets_json h);
        ] )
  in
  Json.to_string
    (Json.Obj
       ([ ("schema", Json.String "telemetry/v1") ]
       @ (match seq_n with Some n -> [ ("seq", Json.Int n) ] | None -> [])
       @ extra
       @ [
           ("uptime_s", Json.Float v.uptime_s);
           ("gauges", Json.Obj (List.map (fun (n, g) -> (n, Json.Float g)) v.gauges));
           ("histograms", Json.Obj (List.map hist_json v.hists));
         ]))
  ^ "\n"

let heartbeat ?extra () =
  if on () then begin
    let n =
      locked (fun () ->
          incr seq;
          !seq)
    in
    let line = to_json_line ~seq:n ?extra (snapshot ()) in
    let emit = locked (fun () -> !sink) in
    emit line;
    locked (fun () -> last_beat := Unix.gettimeofday ())
  end

let maybe_heartbeat ?extra () =
  if on () then begin
    let due =
      locked (fun () -> Unix.gettimeofday () -. !last_beat >= interval_s)
    in
    if due then heartbeat ?extra ()
  end
