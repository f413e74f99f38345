(* Tests for the observability layer: metrics merge algebra, trace
   capture/replay, the determinism contract (tracing on, jobs 1 vs N,
   byte-identical), and the instrumentation invariants the oracle
   documents (fresh probe events <-> counted probes). *)

let jstr key json = Option.bind (Obs.Json.member key json) Obs.Json.to_str
let jint key json = Option.bind (Obs.Json.member key json) Obs.Json.to_int

let with_tracing sink f =
  Obs.Trace.enable ~sink;
  Fun.protect ~finally:Obs.Trace.disable f

let hist_count s name =
  Option.fold ~none:0 ~some:(fun h -> h.Obs.Hist.count) (Obs.Metrics.histogram s name)

let with_metrics f =
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset_global ())
    f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_basics () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.incr r "a";
  Obs.Metrics.incr r "a";
  Obs.Metrics.add r "b" 40;
  Obs.Metrics.observe r "h" 3;
  Obs.Metrics.observe r "h" 5;
  let s = Obs.Metrics.snapshot r in
  Alcotest.(check int) "counter" 2 (Obs.Metrics.counter s "a");
  Alcotest.(check int) "counter absent" 0 (Obs.Metrics.counter s "zzz");
  Alcotest.(check int) "counter b" 40 (Obs.Metrics.counter s "b");
  Alcotest.(check (list (pair string int)))
    "counters sorted" [ ("a", 2); ("b", 40) ] (Obs.Metrics.counters s);
  Alcotest.(check int) "hist count" 2 (hist_count s "h");
  Alcotest.(check (option (float 0.))) "hist sum" (Some 8.)
    (Option.map (fun h -> h.Obs.Hist.sum) (Obs.Metrics.histogram s "h"));
  Alcotest.(check bool) "counter is no histogram" true
    (Obs.Metrics.histogram s "a" = None)

let test_metrics_merge_commutes () =
  let build pairs values =
    let r = Obs.Metrics.create () in
    List.iter (fun (k, n) -> Obs.Metrics.add r k n) pairs;
    List.iter (fun v -> Obs.Metrics.observe r "probes" v) values;
    Obs.Metrics.snapshot r
  in
  let a = build [ ("x", 1); ("y", 2) ] [ 1; 100; 7 ] in
  let b = build [ ("y", 5); ("z", 3) ] [ 2; 64 ] in
  let ab = Obs.Metrics.merge a b and ba = Obs.Metrics.merge b a in
  Alcotest.(check string)
    "merge order invisible in bytes" (Obs.Metrics.to_json ab)
    (Obs.Metrics.to_json ba);
  Alcotest.(check int) "summed counter" 7 (Obs.Metrics.counter ab "y");
  Alcotest.(check int) "hist count" 5 (hist_count ab "probes");
  Alcotest.(check string)
    "empty is identity" (Obs.Metrics.to_json a)
    (Obs.Metrics.to_json (Obs.Metrics.merge a Obs.Metrics.empty))

let test_metrics_json_schema () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.incr r "n";
  Obs.Metrics.observe r "h" 9;
  let doc = Obs.Metrics.to_json (Obs.Metrics.snapshot r) in
  Alcotest.(check bool) "ends in newline" true (String.length doc > 0 && doc.[String.length doc - 1] = '\n');
  match Obs.Json.of_string (String.trim doc) with
  | Error e -> Alcotest.failf "metrics json does not parse: %s" e
  | Ok json ->
      Alcotest.(check (option string))
        "schema tag" (Some "metrics/v1") (jstr "schema" json);
      Alcotest.(check (option int))
        "counter round-trips" (Some 1)
        (Option.bind (Obs.Json.member "counters" json) (jint "n"))

(* ------------------------------------------------------------------ *)
(* Trace rings                                                         *)

let test_ring_drop () =
  with_tracing ignore @@ fun () ->
  Obs.Trace.set_ring_capacity 8;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_ring_capacity Obs.Trace.default_ring_capacity)
    (fun () ->
      let (), record =
        Obs.Trace.capture ~index:3 (fun () ->
            for k = 1 to 20 do
              Obs.Trace.emit
                (Obs.Trace.Probe { u = k; v = k + 1; open_ = true; fresh = true })
            done)
      in
      Alcotest.(check int) "index" 3 (Obs.Trace.record_index record);
      Alcotest.(check int) "dropped" 12 (Obs.Trace.record_dropped record);
      Alcotest.(check int)
        "kept newest" 8
        (List.length (Obs.Trace.record_events record));
      let lines = Obs.Trace.record_lines record in
      Alcotest.(check bool)
        "dropped line present" true
        (List.exists
           (fun l ->
             match Obs.Json.of_string (String.trim l) with
             | Ok j -> jstr "ev" j = Some "dropped"
             | Error _ -> false)
           lines))

(* ------------------------------------------------------------------ *)
(* Observed units of work                                              *)

let test_observe_off () =
  let calls = ref 0 in
  let o =
    Obs.Trace.observe ~index:5 (fun () ->
        incr calls;
        Obs.Metrics.tick "never";
        !calls)
  in
  Alcotest.(check int) "f ran once" 1 !calls;
  Alcotest.(check int) "value" 1 o.Obs.Trace.value;
  Alcotest.(check bool) "no record" true (o.Obs.Trace.record = None);
  Alcotest.(check bool) "empty metrics" true
    (Obs.Metrics.is_empty o.Obs.Trace.metrics)

let test_observe_traced () =
  with_tracing ignore @@ fun () ->
  let o =
    Obs.Trace.observe ~index:7 (fun () ->
        Obs.Trace.emit (Obs.Trace.Accept { distance = 2; probes = 0 }))
  in
  match o.Obs.Trace.record with
  | None -> Alcotest.fail "tracing on but no record"
  | Some record ->
      Alcotest.(check int) "index" 7 (Obs.Trace.record_index record);
      (match Obs.Trace.record_events record with
      | [ Obs.Trace.Attempt_start { index = 7 }; Obs.Trace.Accept _ ] -> ()
      | _ -> Alcotest.fail "want attempt_start {7} then f's accept");
      Alcotest.(check bool) "metrics off: empty" true
        (Obs.Metrics.is_empty o.Obs.Trace.metrics)

let test_observe_metered () =
  with_metrics @@ fun () ->
  Obs.Metrics.reset_global ();
  let o =
    Obs.Trace.observe ~index:1 (fun () ->
        Obs.Metrics.tick "unit.ticks";
        Obs.Metrics.tick "unit.ticks";
        Obs.Metrics.record "unit.hist" 9)
  in
  Alcotest.(check int) "ticks captured" 2
    (Obs.Metrics.counter o.Obs.Trace.metrics "unit.ticks");
  Alcotest.(check int) "histogram captured" 1
    (hist_count o.Obs.Trace.metrics "unit.hist");
  Alcotest.(check bool) "tracing off: no record" true (o.Obs.Trace.record = None);
  Alcotest.(check bool) "global registry untouched" true
    (Obs.Metrics.is_empty (Obs.Metrics.global_snapshot ()))

let test_write_run_replays () =
  let buffer = Buffer.create 1024 in
  with_tracing (Buffer.add_string buffer) @@ fun () ->
  let attempt index terminal =
    Obs.Trace.observe ~index (fun () ->
        Obs.Trace.emit (Obs.Trace.Probe { u = 0; v = 1; open_ = true; fresh = true });
        Obs.Trace.emit terminal)
  in
  let records =
    List.filter_map
      (fun o -> o.Obs.Trace.record)
      [
        attempt 1 (Obs.Trace.Reject { reason = Obs.Trace.Disconnected });
        attempt 2 (Obs.Trace.Accept { distance = 1; probes = 1 });
      ]
  in
  Obs.Trace.write_run
    ~header:[ ("kind", Obs.Json.String "unit") ]
    ~run_lines:[ Obs.Trace.fault_line ~chunk:0 ~attempt:1 ~kind:"crash" ]
    ~attempts:2 ~accepted:1 records;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buffer))
  in
  match Obs.Trace.Replay.parse lines with
  | Error e -> Alcotest.failf "write_run output does not parse: %s" e
  | Ok runs ->
      let v = Obs.Trace.Replay.check runs in
      Alcotest.(check bool) "replays clean" true (Obs.Trace.Replay.ok v);
      Alcotest.(check int) "one run" 1 v.Obs.Trace.Replay.runs;
      Alcotest.(check int) "accepted checked" 1 v.Obs.Trace.Replay.checked;
      (match runs with
      | [ run ] ->
          Alcotest.(check (option int)) "declared attempts" (Some 2)
            run.Obs.Trace.Replay.declared_attempts;
          Alcotest.(check (option int)) "declared accepted" (Some 1)
            run.Obs.Trace.Replay.declared_accepted;
          Alcotest.(check int) "fault line" 1 run.Obs.Trace.Replay.faults
      | _ -> Alcotest.fail "want one run")

(* ------------------------------------------------------------------ *)
(* Trial tracing: jobs-invariance and replay                           *)

let cube = Topology.Hypercube.graph 5

let bfs_spec ?budget ~p () =
  Experiments.Trial.spec ?budget ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source:_ ~target:_ -> Routing.Local_bfs.router)

let bidi_spec ~p () =
  Experiments.Trial.spec ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source:_ ~target:_ -> Routing.Bidirectional.router)

let randomized_spec ~p () =
  Experiments.Trial.spec ~graph:cube ~p ~source:0 ~target:31
    (fun rand ~source:_ ~target:_ -> Routing.Local_bfs.router_randomized rand)

let traced_run ?(jobs = 1) ~seed ~trials spec =
  let buffer = Buffer.create 4096 in
  let result =
    with_tracing (Buffer.add_string buffer) @@ fun () ->
    Experiments.Trial.run ~jobs (Prng.Stream.create seed) ~trials spec
  in
  (result, Buffer.contents buffer)

let test_trace_jobs_invariant () =
  List.iter
    (fun (name, spec) ->
      let _, reference = traced_run ~jobs:1 ~seed:77L ~trials:8 spec in
      Alcotest.(check bool) "trace non-empty" true (reference <> "");
      List.iter
        (fun jobs ->
          let _, trace = traced_run ~jobs ~seed:77L ~trials:8 spec in
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d trace = jobs=1" name jobs)
            reference trace)
        [ 2; 4 ])
    [
      ("local-bfs", bfs_spec ~p:0.6 ());
      ("bidirectional", bidi_spec ~p:0.6 ());
      ("randomized", randomized_spec ~p:0.6 ());
      ("budgeted", bfs_spec ~budget:5 ~p:0.7 ());
    ]

let lines_of trace =
  String.split_on_char '\n' trace |> List.filter (fun l -> String.trim l <> "")

let test_trace_replay_rederives () =
  (* Local and Unrestricted policies through the full trial engine: the
     replayed fresh-probe counts must match every accept line, and the
     number of accepted attempts must match the result's observation
     count. *)
  List.iter
    (fun (name, spec) ->
      let result, trace = traced_run ~jobs:3 ~seed:99L ~trials:10 spec in
      match Obs.Trace.Replay.parse (lines_of trace) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" name e
      | Ok runs ->
          let v = Obs.Trace.Replay.check runs in
          Alcotest.(check bool) (name ^ ": replay ok") true (Obs.Trace.Replay.ok v);
          Alcotest.(check int) (name ^ ": runs") 1 v.Obs.Trace.Replay.runs;
          Alcotest.(check int)
            (name ^ ": accepted = observations")
            (Stats.Censored.count result.Experiments.Trial.observations)
            v.Obs.Trace.Replay.accepted;
          Alcotest.(check int)
            (name ^ ": every accepted attempt checked")
            v.Obs.Trace.Replay.accepted v.Obs.Trace.Replay.checked)
    [
      ("local", bfs_spec ~p:0.6 ());
      ("unrestricted", bidi_spec ~p:0.6 ());
      ("censored", bfs_spec ~budget:4 ~p:0.7 ());
    ]

(* ------------------------------------------------------------------ *)
(* Oracle invariants, on cached and lazy worlds                        *)

let edges_of graph =
  let out = ref [] in
  Topology.Graph.iter_edges graph (fun u v -> out := (u, v) :: !out);
  List.rev !out

let test_oracle_fresh_bijection () =
  (* A probe sweep with repeats and probe_known hits: the number of
     fresh=true Probe events must equal distinct_probes (and
     recount_distinct), on both world representations. *)
  List.iter
    (fun cache ->
      with_tracing ignore @@ fun () ->
      let world =
        Percolation.World.create ~cache cube ~p:0.5 ~seed:0xACEDL
      in
      let edges = edges_of cube in
      let oracle = ref None in
      let (), record =
        Obs.Trace.capture ~index:1 (fun () ->
            let o =
              Percolation.Oracle.create
                ~policy:Percolation.Oracle.Unrestricted world ~source:0
            in
            oracle := Some o;
            List.iter (fun (u, v) -> ignore (Percolation.Oracle.probe o u v)) edges;
            (* Re-probes and free queries: traced fresh=false, uncounted. *)
            List.iter (fun (u, v) -> ignore (Percolation.Oracle.probe o u v)) edges;
            List.iter
              (fun (u, v) -> ignore (Percolation.Oracle.probe_known o u v))
              edges)
      in
      let o = Option.get !oracle in
      let events = Obs.Trace.record_events record in
      let fresh = Obs.Trace.distinct_probes_of_events events in
      let label s = Printf.sprintf "cache=%b: %s" cache s in
      Alcotest.(check int)
        (label "fresh events = distinct_probes")
        (Percolation.Oracle.distinct_probes o)
        fresh;
      Alcotest.(check int)
        (label "recount agrees")
        (Percolation.Oracle.distinct_probes o)
        (Percolation.Oracle.recount_distinct o);
      let stale =
        List.length
          (List.filter
             (function
               | Obs.Trace.Probe { fresh = false; _ } -> true | _ -> false)
             events)
      in
      (* One memo re-probe plus one probe_known hit per edge. *)
      Alcotest.(check int) (label "stale events") (2 * List.length edges) stale)
    [ true; false ]

let test_probe_known_uncounted () =
  with_tracing ignore @@ fun () ->
  let world = Percolation.World.create cube ~p:1.0 ~seed:7L in
  let (), record =
    Obs.Trace.capture ~index:1 (fun () ->
        let o = Percolation.Oracle.create world ~source:0 in
        Alcotest.(check bool) "probe open" true (Percolation.Oracle.probe o 0 1);
        Alcotest.(check (option bool))
          "known after probe" (Some true)
          (Percolation.Oracle.probe_known o 0 1);
        Alcotest.(check (option bool))
          "unprobed edge unknown" None
          (Percolation.Oracle.probe_known o 0 2);
        Alcotest.(check int) "one distinct" 1 (Percolation.Oracle.distinct_probes o);
        Alcotest.(check int) "one raw" 1 (Percolation.Oracle.raw_probes o))
  in
  let events = Obs.Trace.record_events record in
  Alcotest.(check int) "one fresh event" 1 (Obs.Trace.distinct_probes_of_events events);
  let probe_events =
    List.filter (function Obs.Trace.Probe _ -> true | _ -> false) events
  in
  (* probe (fresh) + probe_known hit (stale); the miss emits nothing. *)
  Alcotest.(check int) "two probe events" 2 (List.length probe_events)

(* ------------------------------------------------------------------ *)
(* Trial metrics                                                       *)

let test_trial_metrics () =
  with_metrics @@ fun () ->
  let run jobs =
    Experiments.Trial.run ~jobs
      (Prng.Stream.create 55L)
      ~trials:8 (bfs_spec ~p:0.6 ())
  in
  let reference = run 1 in
  let snap = reference.Experiments.Trial.metrics in
  Alcotest.(check int)
    "accepts = observations"
    (Stats.Censored.count reference.Experiments.Trial.observations)
    (Obs.Metrics.counter snap "trial.accepts");
  Alcotest.(check bool)
    "attempts counted" true
    (Obs.Metrics.counter snap "trial.attempts" >= 8);
  Alcotest.(check int)
    "probe histogram has one entry per accept"
    (Obs.Metrics.counter snap "trial.accepts")
    (hist_count snap "trial.probes");
  Alcotest.(check bool)
    "oracle counters flowed" true
    (Obs.Metrics.counter snap "oracle.probe.fresh" > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "metrics bytes jobs=%d" jobs)
        (Obs.Metrics.to_json snap)
        (Obs.Metrics.to_json (run jobs).Experiments.Trial.metrics))
    [ 2; 4 ]

let test_metrics_off_empty () =
  let result =
    Experiments.Trial.run ~jobs:2
      (Prng.Stream.create 55L)
      ~trials:4 (bfs_spec ~p:0.6 ())
  in
  Alcotest.(check bool)
    "disabled run carries no metrics" true
    (Obs.Metrics.is_empty result.Experiments.Trial.metrics)

(* ------------------------------------------------------------------ *)
(* Catalog-level trace buffering                                       *)

let test_catalog_trace_jobs_invariant () =
  let run jobs =
    let buffer = Buffer.create (1 lsl 16) in
    let _ =
      with_tracing (Buffer.add_string buffer) @@ fun () ->
      Experiments.Catalog.run_all ~quick:true ~jobs ~seed:0x5EEDL ()
    in
    Buffer.contents buffer
  in
  (* Out-of-turn experiments spool to temporary files, forwarded and
     deleted in catalog order. *)
  let spools () =
    Sys.readdir (Filename.get_temp_dir_name ())
    |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"faultroute-trace-")
    |> List.sort compare
  in
  let before = spools () in
  let reference = run 1 in
  Alcotest.(check bool) "catalog trace non-empty" true (reference <> "");
  Alcotest.(check string) "catalog trace jobs=4 = jobs=1" reference (run 4);
  Alcotest.(check (list string)) "no spool left behind" before (spools ());
  match Obs.Trace.Replay.parse (lines_of reference) with
  | Error e -> Alcotest.failf "catalog trace parse failed: %s" e
  | Ok runs ->
      let v = Obs.Trace.Replay.check runs in
      Alcotest.(check bool) "catalog replay ok" true (Obs.Trace.Replay.ok v);
      Alcotest.(check bool) "many runs" true (v.Obs.Trace.Replay.runs > 10)

(* ------------------------------------------------------------------ *)
(* Shortfall marker and timing                                         *)

let test_shortfall_marker () =
  let result =
    Experiments.Trial.run
      (Prng.Stream.create 13L)
      ~trials:3 ~max_attempts:8 (bfs_spec ~p:0.0 ())
  in
  Alcotest.(check bool) "shortfall positive" true (Experiments.Trial.shortfall result > 0);
  match Experiments.Trial.shortfall_note ~label:"t" result with
  | None -> Alcotest.fail "expected a shortfall note"
  | Some note ->
      let report tables_notes =
        Experiments.Report.make ~id:"T" ~title:"t" ~claim:"c" ~seed:1L
          ~notes:tables_notes []
      in
      Alcotest.(check bool)
        "note detected" true
        (Experiments.Report.has_shortfall (report [ "fine"; note ]));
      Alcotest.(check bool)
        "clean report clean" false
        (Experiments.Report.has_shortfall (report [ "all good" ]))

let test_timing_spans () =
  Obs.Timing.reset ();
  Obs.Timing.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Timing.disable ();
      Obs.Timing.reset ())
    (fun () ->
      let v = Obs.Timing.span "unit.work" (fun () -> 41 + 1) in
      Alcotest.(check int) "span returns" 42 v;
      ignore (Obs.Timing.span "unit.work" (fun () -> ()));
      match
        List.find_opt
          (fun e -> e.Obs.Timing.name = "unit.work")
          (Obs.Timing.report ())
      with
      | None -> Alcotest.fail "span not recorded"
      | Some e ->
          Alcotest.(check int) "count" 2 e.Obs.Timing.count;
          Alcotest.(check bool) "time non-negative" true (e.Obs.Timing.total_s >= 0.0))

(* ------------------------------------------------------------------ *)
(* Json float policy                                                   *)

let test_json_nonfinite_null () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h emits null" f)
        "null"
        (Obs.Json.to_string (Obs.Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* Nested occurrences keep the document parseable. *)
  let doc =
    Obs.Json.to_string
      (Obs.Json.Obj [ ("a", Obs.Json.Float Float.nan); ("b", Obs.Json.Int 1) ])
  in
  match Obs.Json.of_string doc with
  | Error e -> Alcotest.failf "nan-bearing object does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option bool))
        "nan field reads as null" (Some true)
        (Option.map (fun v -> v = Obs.Json.Null) (Obs.Json.member "a" j))

let test_json_float_round_trip () =
  List.iter
    (fun f ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
      | Ok (Obs.Json.Float g) ->
          Alcotest.(check bool)
            (Printf.sprintf "%h round-trips exactly" f)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | Ok _ -> Alcotest.failf "%h did not parse back as Float" f
      | Error e -> Alcotest.failf "%h emission does not parse: %s" f e)
    [
      0.0; -0.0; 1.0; -2.5; 0.1; 1.5; Float.pi; 1e-9; 1e300; 6.02214076e23;
      Float.max_float; Float.min_float; 4.9e-324 (* smallest subnormal *);
      123456789.123456789;
    ]

(* ------------------------------------------------------------------ *)
(* Metrics quantiles                                                   *)

let test_metrics_quantiles () =
  let r = Obs.Metrics.create () in
  for v = 1 to 100 do
    Obs.Metrics.observe r "lat" v
  done;
  let s = Obs.Metrics.snapshot r in
  let h = Option.get (Obs.Metrics.histogram s "lat") in
  let q p = Obs.Hist.quantile h p in
  let check label expect p = Alcotest.(check (option (float 0.))) label expect (q p) in
  (* Values 1..100 in power-of-two buckets: rank 50 lands in [32,63]
     (cumulative 63), so the estimate is that bucket's upper bound. *)
  check "p50 = 63" (Some 63.) 0.5;
  (* Ranks 95 and 99 land in [64,127]; the upper bound clamps to the
     observed max. *)
  check "p95 clamps to max" (Some 100.) 0.95;
  check "p99 clamps to max" (Some 100.) 0.99;
  check "p0 clamps to min" (Some 1.) 0.0;
  check "p100 = max" (Some 100.) 1.0;
  Alcotest.(check bool) "absent name" true (Obs.Metrics.histogram s "zzz" = None);
  check "q out of range" None 1.5;
  check "q nan" None Float.nan;
  Alcotest.(check (option (float 0.))) "empty histogram" None
    (Obs.Hist.quantile (Obs.Hist.create ()) 0.5);
  (* A single observation pins every quantile to that value. *)
  let one = Obs.Metrics.create () in
  Obs.Metrics.observe one "x" 37;
  let h1 = Option.get (Obs.Metrics.histogram (Obs.Metrics.snapshot one) "x") in
  List.iter
    (fun p ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "single value q=%.2f" p)
        (Some 37.) (Obs.Hist.quantile h1 p))
    [ 0.0; 0.5; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Hierarchical timing: nested and recursive attribution               *)

let with_timing f =
  Obs.Timing.reset ();
  Obs.Timing.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Timing.disable ();
      Obs.Timing.reset ())
    f

let spin () =
  (* A little real work so spans accumulate measurable nonzero time. *)
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc := !acc + (i * i)
  done;
  Sys.opaque_identity !acc

let test_timing_nested_attribution () =
  with_timing @@ fun () ->
  Obs.Timing.span "outer" (fun () ->
      ignore (spin ());
      Obs.Timing.span "inner" (fun () -> ignore (spin ()));
      Obs.Timing.span "inner" (fun () -> ignore (spin ())));
  match Obs.Timing.tree () with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" outer.Obs.Timing.span_name;
      Alcotest.(check int) "root calls" 1 outer.Obs.Timing.calls;
      (match outer.Obs.Timing.children with
      | [ inner ] ->
          Alcotest.(check string) "child name" "inner" inner.Obs.Timing.span_name;
          Alcotest.(check int) "child calls merged" 2 inner.Obs.Timing.calls;
          (* total = self + children, exactly (same additions). *)
          Alcotest.(check (float 1e-9))
            "outer total = self + inner total"
            outer.Obs.Timing.total
            (outer.Obs.Timing.self +. inner.Obs.Timing.total);
          Alcotest.(check bool) "inner leaf: self = total" true
            (inner.Obs.Timing.self = inner.Obs.Timing.total)
      | kids ->
          Alcotest.failf "expected one merged child, got %d" (List.length kids))
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_timing_recursive_once () =
  with_timing @@ fun () ->
  let rec go n =
    Obs.Timing.span "rec" (fun () ->
        ignore (spin ());
        if n > 0 then go (n - 1))
  in
  go 2;
  (* Three nested activations of the same name. *)
  let root =
    match Obs.Timing.tree () with
    | [ r ] -> r
    | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)
  in
  let rec depth t =
    match t.Obs.Timing.children with
    | [] -> 1
    | [ c ] -> 1 + depth c
    | kids -> Alcotest.failf "unexpected fanout %d" (List.length kids)
  in
  Alcotest.(check int) "three nested nodes" 3 (depth root);
  let rec self_sum t =
    t.Obs.Timing.self
    +. List.fold_left (fun a c -> a +. self_sum c) 0.0 t.Obs.Timing.children
  in
  (* The flat report must count the recursive total once (the outermost
     activation), not three times, while counting all three calls and
     the full self sum. *)
  (match Obs.Timing.report () with
  | [ e ] ->
      Alcotest.(check string) "entry name" "rec" e.Obs.Timing.name;
      Alcotest.(check int) "entry count" 3 e.Obs.Timing.count;
      Alcotest.(check (float 1e-9))
        "total counted once" root.Obs.Timing.total e.Obs.Timing.total_s;
      Alcotest.(check (float 1e-9))
        "self sums over activations" (self_sum root) e.Obs.Timing.self_s;
      Alcotest.(check bool) "wall >= self-sum sanity" true
        (e.Obs.Timing.total_s +. 1e-9 >= e.Obs.Timing.self_s)
  | entries ->
      Alcotest.failf "expected one flat entry, got %d" (List.length entries));
  (* profile/v1 artifact parses and carries the schema tag. *)
  (match Obs.Json.of_string (String.trim (Obs.Timing.profile_json ())) with
  | Error e -> Alcotest.failf "profile json does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "profile schema" (Some "profile/v1") (jstr "schema" j));
  (* Folded stacks spell out the recursion path. *)
  Alcotest.(check bool) "folded has rec;rec;rec" true
    (List.exists
       (fun l ->
         String.length l > 11 && String.sub l 0 11 = "rec;rec;rec")
       (Obs.Timing.folded (Obs.Timing.tree ())))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let with_telemetry sink f =
  Obs.Telemetry.reset ();
  Obs.Telemetry.set_sink sink;
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ();
      Obs.Telemetry.set_sink (fun line ->
          output_string stderr line;
          flush stderr))
    f

let test_telemetry_snapshot () =
  with_telemetry ignore @@ fun () ->
  Obs.Telemetry.add_to "work" 2.0;
  Obs.Telemetry.add_to "work" 3.0;
  Obs.Telemetry.set_gauge "depth" 7.0;
  Obs.Telemetry.max_gauge "peak" 5.0;
  Obs.Telemetry.max_gauge "peak" 2.0;
  List.iter (fun v -> Obs.Telemetry.observe_ns "lat_ns" v)
    [ 100.0; 200.0; 400.0; 800.0 ];
  let v = Obs.Telemetry.snapshot () in
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauges accumulate, sorted"
    [ ("depth", 7.0); ("peak", 5.0); ("work", 5.0) ]
    v.Obs.Telemetry.gauges;
  (match v.Obs.Telemetry.hists with
  | [ ("lat_ns", h) ] ->
      Alcotest.(check int) "hist count" 4 h.Obs.Hist.count;
      Alcotest.(check (float 1e-9)) "hist sum" 1500.0 h.Obs.Hist.sum;
      Alcotest.(check (float 1e-9)) "hist min" 100.0 h.Obs.Hist.min;
      Alcotest.(check (float 1e-9)) "hist max" 800.0 h.Obs.Hist.max;
      (* Rank 2 of 4 lands in the [128,255] bucket holding 200. *)
      Alcotest.(check (option (float 1e-9)))
        "p50 upper bound" (Some 255.0)
        (Obs.Telemetry.hist_quantile_ns h 0.5);
      Alcotest.(check (option (float 1e-9)))
        "p99 clamps to max" (Some 800.0)
        (Obs.Telemetry.hist_quantile_ns h 0.99)
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs));
  (* The heartbeat line is valid telemetry/v1 JSON with extras spliced. *)
  let line =
    Obs.Telemetry.to_json_line ~extra:[ ("session", Obs.Json.String "t") ] v
  in
  match Obs.Json.of_string (String.trim line) with
  | Error e -> Alcotest.failf "heartbeat does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "schema tag" (Some "telemetry/v1") (jstr "schema" j);
      Alcotest.(check (option string)) "extra spliced" (Some "t") (jstr "session" j);
      Alcotest.(check (option int))
        "histogram count on the wire" (Some 4)
        (Option.bind (Obs.Json.member "histograms" j)
           (fun hs ->
             Option.bind (Obs.Json.member "lat_ns" hs) (jint "count")))

let test_telemetry_local_absorb () =
  with_telemetry ignore @@ fun () ->
  let l = Obs.Hist.create () in
  Obs.Hist.add l 100.0;
  Obs.Hist.add l 900.0;
  Obs.Telemetry.observe_ns "t_ns" 500.0;
  Obs.Telemetry.absorb "t_ns" l;
  let v = Obs.Telemetry.snapshot () in
  match List.assoc_opt "t_ns" v.Obs.Telemetry.hists with
  | None -> Alcotest.fail "absorbed histogram missing"
  | Some h ->
      Alcotest.(check int) "merged count" 3 h.Obs.Hist.count;
      Alcotest.(check (float 1e-9)) "merged sum" 1500.0 h.Obs.Hist.sum;
      Alcotest.(check (float 1e-9)) "merged min" 100.0 h.Obs.Hist.min;
      Alcotest.(check (float 1e-9)) "merged max" 900.0 h.Obs.Hist.max

let test_telemetry_disabled_noop () =
  Obs.Telemetry.reset ();
  Obs.Telemetry.add_to "g" 1.0;
  Obs.Telemetry.observe_ns "h_ns" 42.0;
  let hits = ref 0 in
  Obs.Telemetry.set_sink (fun _ -> incr hits);
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.set_sink (fun line ->
          output_string stderr line;
          flush stderr))
    (fun () ->
      Obs.Telemetry.heartbeat ();
      let v = Obs.Telemetry.snapshot () in
      Alcotest.(check int) "no gauges recorded" 0
        (List.length v.Obs.Telemetry.gauges);
      Alcotest.(check int) "no hists recorded" 0
        (List.length v.Obs.Telemetry.hists);
      Alcotest.(check int) "no heartbeat emitted" 0 !hits)

(* ------------------------------------------------------------------ *)
(* Inspect: sniff-load of the artifact family                          *)

let write_temp_file suffix content =
  let path = Filename.temp_file "obs_test_" suffix in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let load_kind path =
  match Obs.Inspect.load path with
  | Ok a -> Ok (Obs.Inspect.kind_name (Obs.Inspect.kind a))
  | Error e -> Error e

let test_inspect_load_family () =
  let profile =
    with_timing (fun () ->
        Obs.Timing.span "a" (fun () -> Obs.Timing.span "b" spin |> ignore);
        Obs.Timing.profile_json ())
  in
  let telemetry =
    with_telemetry ignore (fun () ->
        Obs.Telemetry.observe_ns "x_ns" 640.0;
        Obs.Telemetry.to_json_line (Obs.Telemetry.snapshot ()))
  in
  let metrics =
    let r = Obs.Metrics.create () in
    Obs.Metrics.incr r "n";
    Obs.Metrics.to_json (Obs.Metrics.snapshot r)
  in
  let cases =
    [
      (".json", profile, "profile/v1");
      (".jsonl", telemetry, "telemetry/v1");
      (".json", metrics, "metrics/v1");
    ]
  in
  List.iter
    (fun (suffix, content, expect) ->
      let path = write_temp_file suffix content in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Alcotest.(check (result string string))
            (expect ^ " loads") (Ok expect) (load_kind path)))
    cases;
  (* Outside the family: a clear error naming the path. *)
  let alien = write_temp_file ".json" "{\"schema\": \"martian/v1\"}\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove alien)
    (fun () ->
      match load_kind alien with
      | Ok k -> Alcotest.failf "alien schema loaded as %s" k
      | Error e ->
          Alcotest.(check bool) "error cites the path" true
            (String.length e >= String.length alien
            && String.sub e 0 (String.length alien) = alien))

(* ------------------------------------------------------------------ *)
(* The one histogram: estimator bounds and wire round trips            *)

let loaded_hist path name =
  match Obs.Inspect.load path with
  | Error e -> Error e
  | Ok a -> (
      match Option.bind (Obs.Inspect.table a) (fun t -> List.assoc_opt name t.Obs.Inspect.hists) with
      | Some h -> Ok h
      | None -> Error "histogram missing after load")

let hist_qcheck =
  let gen =
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 60) (oneof [ int_bound 20; int_bound 1_000_000 ]))
        (float_bound_inclusive 1.0) (int_bound (1 lsl 20)))
  in
  QCheck2.Test.make ~count:200 ~name:"Hist.quantile bounds and wire round trips" gen
    (fun (samples, q, bound) ->
      let h = Obs.Hist.create () in
      List.iter (fun v -> Obs.Hist.add h (float_of_int v)) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      (* The exact rank-ceil(q n) order statistic and its bucket's
         inclusive upper bound. *)
      let x = sorted.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1) in
      let rec upper b = if b > x then b - 1 else upper (2 * b) in
      let x_upper = if x <= 1 then x else upper 2 in
      let estimate = Option.get (Obs.Hist.quantile h q) in
      let qs = [ 0.; 0.5; 0.95; 0.99; 1.; q ] in
      let same (back : Obs.Hist.t) =
        back.count = h.count && back.sum = h.sum
        && List.for_all (fun p -> Obs.Hist.quantile back p = Obs.Hist.quantile h p) qs
      in
      let via_file suffix content name =
        let path = write_temp_file suffix content in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> loaded_hist path name)
      in
      let r = Obs.Metrics.create () in
      List.iter (Obs.Metrics.observe r "h") samples;
      let metrics = Obs.Metrics.to_json (Obs.Metrics.snapshot r) in
      let telemetry =
        with_telemetry ignore (fun () ->
            List.iter (fun v -> Obs.Telemetry.observe_ns "h_ns" (float_of_int v)) samples;
            Obs.Telemetry.to_json_line (Obs.Telemetry.snapshot ()))
      in
      (* One bucket at [bound]: it loads iff the bound is 0 or a power
         of two. *)
      let single =
        Printf.sprintf
          {|{"schema": "metrics/v1", "counters": {}, "histograms": {"h": {"count": 1, "sum": %d, "min": %d, "max": %d, "buckets": [[%d, 1]]}}}|}
          bound bound bound bound
      in
      float_of_int (Array.fold_left min max_int sorted) <= estimate
      && estimate <= float_of_int (Array.fold_left max 0 sorted)
      && float_of_int x <= estimate
      && estimate <= float_of_int x_upper
      && (match via_file ".json" metrics "h" with Ok back -> same back | Error _ -> false)
      && (match via_file ".jsonl" telemetry "h_ns" with Ok back -> same back | Error _ -> false)
      && Result.is_ok (via_file ".json" single "h") = (bound land (bound - 1) = 0))

(* ------------------------------------------------------------------ *)
(* Bench history                                                       *)

let bench_json ?commit ?timestamp ~mode ~cached ~trial () =
  let provenance =
    match (commit, timestamp) with
    | None, None -> ""
    | _ ->
        Printf.sprintf "\"commit\": %s, \"timestamp\": %s, "
          (match commit with Some c -> Printf.sprintf "%S" c | None -> "null")
          (match timestamp with Some t -> Printf.sprintf "%S" t | None -> "null")
  in
  Printf.sprintf
    {|{"schema": %S, %s"mode": %S, "topologies": [
        {"name": "mesh2(m=40)",
         "reveal_bfs": {"cached_ns": %f, "lazy_ns": 99.0},
         "oracle_probe": {"cached_ns": %f},
         "trial_run": {"ns": %f}}]}|}
    (match (commit, timestamp) with
    | None, None -> "bench_percolation/v1"
    | _ -> "bench_percolation/v2")
    provenance mode cached (cached *. 2.0) trial

let parse_snapshot text =
  match Result.bind (Obs.Json.of_string text) Obs.Bench_history.of_json with
  | Ok s -> s
  | Error e -> Alcotest.failf "bench snapshot: %s" e

let test_bench_history_schemas () =
  let v1 = parse_snapshot (bench_json ~mode:"quick" ~cached:100.0 ~trial:500.0 ()) in
  Alcotest.(check (option string)) "v1 commit" None v1.Obs.Bench_history.commit;
  Alcotest.(check (option string)) "v1 timestamp" None
    v1.Obs.Bench_history.timestamp;
  Alcotest.(check (option (float 1e-9))) "cached metric" (Some 100.0)
    (List.assoc_opt "mesh2(m=40)/reveal_bfs.cached_ns"
       v1.Obs.Bench_history.metrics);
  Alcotest.(check (option (float 1e-9))) "trial metric" (Some 500.0)
    (List.assoc_opt "mesh2(m=40)/trial_run.ns" v1.Obs.Bench_history.metrics);
  (* The lazy-path number is deliberately not tracked. *)
  Alcotest.(check int) "three tracked metrics" 3
    (List.length v1.Obs.Bench_history.metrics);
  let v2 =
    parse_snapshot
      (bench_json ~commit:"abc1234" ~timestamp:"2026-08-06T00:00:00Z"
         ~mode:"full" ~cached:100.0 ~trial:500.0 ())
  in
  Alcotest.(check (option string)) "v2 commit" (Some "abc1234")
    v2.Obs.Bench_history.commit;
  Alcotest.(check string) "v2 mode" "full" v2.Obs.Bench_history.mode;
  (match
     Result.bind
       (Obs.Json.of_string "{\"schema\": \"bench_percolation/v9\"}")
       Obs.Bench_history.of_json
   with
  | Ok _ -> Alcotest.fail "accepted unknown schema"
  | Error _ -> ())

let test_bench_history_trailing_baseline () =
  let lines =
    [
      bench_json ~mode:"quick" ~cached:100.0 ~trial:500.0 ();
      "";
      bench_json ~mode:"full" ~cached:900.0 ~trial:4000.0 ();
      bench_json ~commit:"def5678" ~timestamp:"2026-08-06T01:00:00Z"
        ~mode:"quick" ~cached:110.0 ~trial:520.0 ();
    ]
  in
  match Obs.Bench_history.parse_lines lines with
  | Error e -> Alcotest.failf "parse_lines: %s" e
  | Ok history ->
      Alcotest.(check int) "blank line skipped" 3 (List.length history);
      (match Obs.Bench_history.trailing_baseline ~mode:"quick" history with
      | None -> Alcotest.fail "no quick baseline"
      | Some s ->
          Alcotest.(check (option string)) "latest quick wins" (Some "def5678")
            s.Obs.Bench_history.commit);
      Alcotest.(check bool) "no bench mode" true
        (Obs.Bench_history.trailing_baseline ~mode:"bench" history = None)

let test_bench_history_parse_error_cites_line () =
  match Obs.Bench_history.parse_lines [ bench_json ~mode:"quick" ~cached:1.0 ~trial:1.0 (); "{oops" ] with
  | Ok _ -> Alcotest.fail "accepted malformed line"
  | Error e ->
      Alcotest.(check bool) "cites line 2" true
        (String.length e >= 14 && String.sub e 0 14 = "history line 2")

let test_bench_history_diff () =
  (* [obs diff] of two histories: the second history's newest snapshot
     against the first's newest of the same mode, every shared metric
     as baseline -> current with its ratio, and no verdict however
     large the ratio. *)
  let history lines =
    let one_line json = String.map (fun c -> if c = '\n' then ' ' else c) json in
    match
      Obs.Inspect.load
        (write_temp_file ".jsonl" (String.concat "\n" (List.map one_line lines)))
    with
    | Ok artifact -> artifact
    | Error e -> Alcotest.failf "load: %s" e
  in
  let diff a b =
    Format.asprintf "%a"
      (fun ppf () ->
        match Obs.Inspect.diff ppf a b with
        | Ok () -> ()
        | Error e -> Alcotest.failf "diff: %s" e)
      ()
  in
  let baseline =
    history
      [
        bench_json ~commit:"aaa1111" ~timestamp:"2026-08-06T00:00:00Z"
          ~mode:"quick" ~cached:100.0 ~trial:500.0 ();
        bench_json ~commit:"fff9999" ~timestamp:"2026-08-06T00:30:00Z"
          ~mode:"full" ~cached:900.0 ~trial:4000.0 ();
      ]
  in
  let current =
    history
      [
        bench_json ~commit:"bbb2222" ~timestamp:"2026-08-06T01:00:00Z"
          ~mode:"quick" ~cached:130.0 ~trial:550.0 ();
      ]
  in
  let squeeze line =
    String.concat " " (List.filter (( <> ) "") (String.split_on_char ' ' line))
  in
  Alcotest.(check (list string)) "one row per shared metric"
    [
      "quick mode, aaa1111 -> bbb2222";
      "mesh2(m=40)/reveal_bfs.cached_ns 100 -> 130 ns 1.30x";
      "mesh2(m=40)/oracle_probe.cached_ns 200 -> 260 ns 1.30x";
      "mesh2(m=40)/trial_run.ns 500 -> 550 ns 1.10x";
    ]
    (String.split_on_char '\n' (diff baseline current)
    |> List.filter (( <> ) "")
    |> List.map squeeze);
  (* No same-mode snapshot to compare against: said so, nothing else. *)
  let full_only =
    history
      [
        bench_json ~commit:"ccc3333" ~timestamp:"2026-08-06T02:00:00Z"
          ~mode:"full" ~cached:1.0 ~trial:1.0 ();
      ]
  in
  Alcotest.(check string) "no quick baseline"
    "  no quick-mode snapshot in the first history\n" (diff full_only current)

(* The committed history and snapshot must keep parsing, including the
   v3 lines written while the bitset reveal engine existed. *)
let test_bench_history_committed_files () =
  let read path = In_channel.with_open_text path In_channel.input_all in
  (match Obs.Bench_history.parse_lines (String.split_on_char '\n' (read "../BENCH_history.jsonl")) with
  | Error e -> Alcotest.failf "BENCH_history.jsonl: %s" e
  | Ok history ->
      Alcotest.(check bool) "several snapshots" true (List.length history >= 3);
      Alcotest.(check bool) "a v3 line carries bitset_ns" true
        (List.exists
           (fun s ->
             List.exists
               (fun (key, _) -> Filename.extension key = ".bitset_ns")
               s.Obs.Bench_history.metrics)
           history));
  (match Result.bind (Obs.Json.of_string (read "../BENCH_percolation.json")) Obs.Bench_history.of_json with
  | Error e -> Alcotest.failf "BENCH_percolation.json: %s" e
  | Ok snapshot ->
      Alcotest.(check bool) "churn row harvested" true
        (List.mem_assoc "churn-stepper/churn_step.ns"
           snapshot.Obs.Bench_history.metrics));
  (* The inspector loads both: the JSONL trail and the pretty-printed
     single snapshot. *)
  List.iter
    (fun path ->
      Alcotest.(check (result string string))
        (path ^ " loads") (Ok "bench_percolation history") (load_kind path))
    [ "../BENCH_history.jsonl"; "../BENCH_percolation.json" ]

let test_bench_history_churn_step () =
  (* The churn-stepper entry carries only its own kernel: it must be
     harvested into the regression keyspace and satisfy the
     at-least-one-timing rule on its own. *)
  let snapshot =
    parse_snapshot
      {|{"schema": "bench_percolation/v3", "mode": "quick", "topologies": [
          {"name": "churn-stepper", "churn_step": {"ns": 41805983.0, "queries": 354000}}]}|}
  in
  Alcotest.(check (option (float 1e-3)))
    "churn metric harvested" (Some 41805983.0)
    (List.assoc_opt "churn-stepper/churn_step.ns"
       snapshot.Obs.Bench_history.metrics);
  Alcotest.(check int) "only the churn metric" 1
    (List.length snapshot.Obs.Bench_history.metrics)

(* ------------------------------------------------------------------ *)
(* Run ledger                                                          *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let report_string artifact = Format.asprintf "%a" Obs.Inspect.report artifact

let with_ledger_fixture k =
  let artifact = write_temp_file ".txt" "payload\n" in
  let ledger = write_temp_file ".jsonl" "" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists artifact then Sys.remove artifact;
      Sys.remove ledger)
    (fun () -> k ~artifact ~ledger)

let ledger_record ~artifact =
  let digest =
    match Obs.Ledger.digest_file artifact with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  {
    Obs.Ledger.subcommand = "serve";
    config_digest = Obs.Ledger.digest_string "argv";
    seed = 42L;
    jobs = 4;
    wall_s = 1.5;
    exit_code = 0;
    artifacts = [ { Obs.Ledger.path = artifact; digest } ];
  }

let ledger_lines ledger =
  In_channel.with_open_bin ledger In_channel.input_all
  |> String.split_on_char '\n'

let test_ledger_round_trip () =
  with_ledger_fixture @@ fun ~artifact ~ledger ->
  let r = ledger_record ~artifact in
  Obs.Ledger.append ~path:ledger r;
  Obs.Ledger.append ~path:ledger
    { r with Obs.Ledger.subcommand = "check"; exit_code = 2 };
  match Obs.Ledger.parse_lines (ledger_lines ledger) with
  | Error e -> Alcotest.fail e
  | Ok (records, torn) -> (
      Alcotest.(check bool) "no torn line" false torn;
      match records with
      | [ a; b ] ->
          Alcotest.(check string) "subcommand" "serve" a.Obs.Ledger.subcommand;
          Alcotest.(check int64) "seed" 42L a.Obs.Ledger.seed;
          Alcotest.(check int) "jobs" 4 a.Obs.Ledger.jobs;
          Alcotest.(check (float 1e-9)) "wall" 1.5 a.Obs.Ledger.wall_s;
          Alcotest.(check string) "config digest survives"
            r.Obs.Ledger.config_digest b.Obs.Ledger.config_digest;
          Alcotest.(check int) "exit code" 2 b.Obs.Ledger.exit_code;
          Alcotest.(check (list string)) "digests match disk" []
            (Obs.Ledger.verify records);
          (* The inspector loads (= validates) the same file. *)
          Alcotest.(check (result string string))
            "inspector sniffs runledger/v1" (Ok "runledger/v1")
            (load_kind ledger)
      | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs))

let test_ledger_tamper_detected () =
  with_ledger_fixture @@ fun ~artifact ~ledger ->
  Obs.Ledger.append ~path:ledger (ledger_record ~artifact);
  let oc = open_out_gen [ Open_append ] 0o644 artifact in
  output_string oc "tamper\n";
  close_out oc;
  (match Obs.Ledger.parse_lines (ledger_lines ledger) with
  | Error e -> Alcotest.fail e
  | Ok (records, _) -> (
      match Obs.Ledger.verify records with
      | [ message ] ->
          Alcotest.(check bool) "names the mismatch" true
            (contains ~needle:"digest mismatch" message)
      | msgs -> Alcotest.failf "expected 1 message, got %d" (List.length msgs)));
  (match Obs.Inspect.load ledger with
  | Ok _ -> Alcotest.fail "inspector accepted a tampered artifact"
  | Error e ->
      Alcotest.(check bool) "load error cites the mismatch" true
        (contains ~needle:"digest mismatch" e));
  (* A missing artifact is the other failure mode. *)
  Sys.remove artifact;
  match Obs.Ledger.parse_lines (ledger_lines ledger) with
  | Error e -> Alcotest.fail e
  | Ok (records, _) -> (
      match Obs.Ledger.verify records with
      | [ message ] ->
          Alcotest.(check bool) "names the missing file" true
            (contains ~needle:"missing" message)
      | msgs -> Alcotest.failf "expected 1 message, got %d" (List.length msgs))

let test_ledger_torn_final_line () =
  with_ledger_fixture @@ fun ~artifact ~ledger ->
  Obs.Ledger.append ~path:ledger (ledger_record ~artifact);
  let whole = Obs.Ledger.record_line (ledger_record ~artifact) in
  let oc = open_out_gen [ Open_append ] 0o644 ledger in
  (* A crash mid-append: half a record, no newline. *)
  output_string oc (String.sub whole 0 (String.length whole / 2));
  close_out oc;
  (match Obs.Ledger.parse_lines (ledger_lines ledger) with
  | Error e -> Alcotest.fail e
  | Ok (records, torn) ->
      Alcotest.(check bool) "torn line reported" true torn;
      Alcotest.(check int) "whole records kept" 1 (List.length records));
  (* Torn is tolerated, corrupt is not: a malformed line that is NOT
     final is corruption. *)
  let lines = ledger_lines ledger @ [ whole ] in
  match Obs.Ledger.parse_lines (List.filter (fun l -> String.trim l <> "") lines) with
  | Ok _ -> Alcotest.fail "accepted corruption before the final line"
  | Error e ->
      Alcotest.(check bool) "cites the line" true (contains ~needle:"line 2" e)

(* ------------------------------------------------------------------ *)
(* Heartbeat seq, gap detection, the no-samples row                    *)

let test_heartbeat_seq_monotonic () =
  let buf = Buffer.create 256 in
  with_telemetry (Buffer.add_string buf) @@ fun () ->
  Obs.Telemetry.set_gauge "g" 1.0;
  Obs.Telemetry.heartbeat ();
  Obs.Telemetry.heartbeat ();
  let seqs =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Obs.Json.of_string l with
           | Ok j -> jint "seq" j
           | Error e -> Alcotest.fail e)
  in
  Alcotest.(check (list (option int)))
    "seq counts emissions, starting at 1"
    [ Some 1; Some 2 ] seqs

let heartbeat_line ~seq =
  with_telemetry ignore (fun () ->
      Obs.Telemetry.set_gauge "g" 1.0;
      Obs.Telemetry.to_json_line ~seq (Obs.Telemetry.snapshot ()))

let test_seq_gap_flagged () =
  let path = write_temp_file ".jsonl" (heartbeat_line ~seq:1 ^ heartbeat_line ~seq:3) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Obs.Inspect.load path with
      | Error e -> Alcotest.fail e
      | Ok artifact ->
          let rendered = report_string artifact in
          Alcotest.(check bool) "report warns about the gap" true
            (contains ~needle:"1 missing" rendered);
          (* A contiguous file draws no warning. *)
          let clean = write_temp_file ".jsonl" (heartbeat_line ~seq:1 ^ heartbeat_line ~seq:2) in
          Fun.protect
            ~finally:(fun () -> Sys.remove clean)
            (fun () ->
              match Obs.Inspect.load clean with
              | Error e -> Alcotest.fail e
              | Ok artifact ->
                  Alcotest.(check bool) "no spurious warning" false
                    (contains ~needle:"WARNING" (report_string artifact))))

let test_report_no_samples () =
  let cases =
    [
      ("empty metrics", ".json", Obs.Metrics.to_json Obs.Metrics.empty);
      ( "header-only telemetry", ".jsonl",
        with_telemetry ignore (fun () ->
            Obs.Telemetry.to_json_line (Obs.Telemetry.snapshot ())) );
    ]
  in
  List.iter
    (fun (label, suffix, content) ->
      let path = write_temp_file suffix content in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          match Obs.Inspect.load path with
          | Error e -> Alcotest.fail e
          | Ok artifact ->
              Alcotest.(check bool) (label ^ " prints the explicit row") true
                (contains ~needle:"(no samples)" (report_string artifact))))
    cases

(* ------------------------------------------------------------------ *)
(* Runtime gauges and the top renderer                                 *)

let test_runtime_gauges_published () =
  with_telemetry ignore @@ fun () ->
  let results =
    Engine_par.Pool.map ~jobs:2
      (fun i -> Array.length (Array.make 4096 i))
      (Array.init 64 Fun.id)
  in
  Alcotest.(check int) "pool results intact" 64 (Array.length results);
  Obs.Runtime.publish_process ();
  let v = Obs.Telemetry.snapshot () in
  let has prefix =
    List.exists
      (fun (name, _) ->
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix)
      v.Obs.Telemetry.gauges
  in
  Alcotest.(check bool) "per-domain GC gauges absorbed" true
    (has "runtime.domain.");
  Alcotest.(check bool) "process heap gauge" true
    (List.mem_assoc "runtime.heap_words" v.Obs.Telemetry.gauges);
  Alcotest.(check bool) "top-heap watermark" true
    (List.mem_assoc "runtime.top_heap_words" v.Obs.Telemetry.gauges)

let test_top_render () =
  let line =
    with_telemetry ignore (fun () ->
        Obs.Telemetry.set_gauge "serve.admitted" 10.;
        Obs.Telemetry.set_gauge "serve.answered" 9.;
        Obs.Telemetry.set_gauge "serve.queue_depth_peak" 6.;
        Obs.Telemetry.set_gauge "pool.domain.0.busy_s" 1.0;
        Obs.Telemetry.set_gauge "pool.domain.0.wall_s" 2.0;
        Obs.Telemetry.set_gauge "pool.domain.0.tasks" 5.;
        Obs.Telemetry.add_to "runtime.domain.0.minor_collections" 3.;
        Obs.Telemetry.add_to "runtime.domain.0.allocated_words" 1e6;
        Obs.Telemetry.set_gauge "runtime.heap_words" 2e6;
        Obs.Telemetry.observe_ns "serve.latency.route_ns" 1e6;
        Obs.Telemetry.to_json_line ~seq:2
          ~extra:[ ("session", Obs.Json.String "demo") ]
          (Obs.Telemetry.snapshot ()))
  in
  match Obs.Top.frame_of_line line with
  | Error e -> Alcotest.fail e
  | Ok f ->
      Alcotest.(check (option int)) "seq parsed" (Some 2) f.Obs.Top.seq;
      Alcotest.(check (option string)) "session parsed" (Some "demo")
        f.Obs.Top.session;
      let rendered = Obs.Top.render f in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " section present") true
            (contains ~needle rendered))
        [
          "progress"; "pool utilization"; "gc"; "heap"; "histogram"; "route";
          "p95"; "50.0";
        ];
      (* Gap arithmetic: 2 -> 5 lost two heartbeats; unknown seq = 0. *)
      Alcotest.(check int) "gap counts missing beats" 2
        (Obs.Top.gap ~prev:f { f with Obs.Top.seq = Some 5 });
      Alcotest.(check int) "unknown seq no gap" 0
        (Obs.Top.gap ~prev:{ f with Obs.Top.seq = None } f);
      match Obs.Top.frame_of_line "{\"schema\": \"metrics/v1\"}" with
      | Ok _ -> Alcotest.fail "accepted a non-telemetry line"
      | Error e ->
          Alcotest.(check bool) "names the wrong schema" true
            (contains ~needle:"metrics/v1" e)

(* ------------------------------------------------------------------ *)
(* Query lifecycle spans in replay                                     *)

let test_replay_qspans () =
  let run spans =
    [ Obs.Trace.header_line [ ("kind", Obs.Json.String "serve") ] ]
    @ List.map (fun (q, stage) -> Obs.Trace.qspan_line ~q ~stage) spans
    @ [ Obs.Trace.end_line ~attempts:0 ~accepted:0 ]
  in
  let check_spans label spans expect_errors =
    match Obs.Trace.Replay.parse (run spans) with
    | Error e -> Alcotest.failf "%s: %s" label e
    | Ok runs ->
        let v = Obs.Trace.Replay.check runs in
        Alcotest.(check int) (label ^ ": spans counted")
          (List.length spans) v.Obs.Trace.Replay.qspans;
        Alcotest.(check int) (label ^ ": violations")
          expect_errors
          (List.length v.Obs.Trace.Replay.qspan_errors);
        Alcotest.(check bool) (label ^ ": verdict") (expect_errors = 0)
          (Obs.Trace.Replay.ok v)
  in
  let open Obs.Trace in
  check_spans "full lifecycle"
    [ (1, Admit); (1, Enqueue); (1, Execute); (1, Tally) ] 0;
  check_spans "stats shape (admit straight to tally)"
    [ (1, Admit); (1, Tally) ] 0;
  check_spans "interleaved queries"
    [ (1, Admit); (2, Admit); (1, Enqueue); (2, Enqueue); (1, Tally); (2, Tally) ] 0;
  check_spans "tally before admit" [ (7, Tally) ] 1;
  check_spans "event after tally"
    [ (1, Admit); (1, Tally); (1, Enqueue) ] 1;
  check_spans "duplicate tally"
    [ (1, Admit); (1, Tally); (1, Tally) ] 1;
  check_spans "admitted but never tallied" [ (1, Admit) ] 1;
  check_spans "out of order"
    [ (1, Admit); (1, Execute); (1, Enqueue); (1, Tally) ] 1

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "merge commutes" `Quick test_metrics_merge_commutes;
          Alcotest.test_case "json schema" `Quick test_metrics_json_schema;
          Alcotest.test_case "trial metrics" `Quick test_trial_metrics;
          Alcotest.test_case "off = empty" `Quick test_metrics_off_empty;
          Alcotest.test_case "quantiles" `Quick test_metrics_quantiles;
        ] );
      ( "json",
        [
          Alcotest.test_case "non-finite emits null" `Quick
            test_json_nonfinite_null;
          Alcotest.test_case "finite round-trip" `Quick
            test_json_float_round_trip;
        ] );
      ( "timing",
        [
          Alcotest.test_case "nested attribution" `Quick
            test_timing_nested_attribution;
          Alcotest.test_case "recursive counted once" `Quick
            test_timing_recursive_once;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "snapshot and heartbeat" `Quick
            test_telemetry_snapshot;
          Alcotest.test_case "local absorb" `Quick test_telemetry_local_absorb;
          Alcotest.test_case "disabled no-op" `Quick
            test_telemetry_disabled_noop;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "artifact family loads" `Quick
            test_inspect_load_family;
          Alcotest.test_case "heartbeat seq gap flagged" `Quick
            test_seq_gap_flagged;
          Alcotest.test_case "no samples row" `Quick test_report_no_samples;
        ] );
      ("hist", [ QCheck_alcotest.to_alcotest hist_qcheck ]);
      ( "ledger",
        [
          Alcotest.test_case "append round-trip" `Quick test_ledger_round_trip;
          Alcotest.test_case "tamper detected" `Quick
            test_ledger_tamper_detected;
          Alcotest.test_case "torn final line tolerated" `Quick
            test_ledger_torn_final_line;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "heartbeat seq monotonic" `Quick
            test_heartbeat_seq_monotonic;
          Alcotest.test_case "gc gauges published" `Quick
            test_runtime_gauges_published;
          Alcotest.test_case "top renders a frame" `Quick test_top_render;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring drop" `Quick test_ring_drop;
          Alcotest.test_case "observe off" `Quick test_observe_off;
          Alcotest.test_case "observe traced" `Quick test_observe_traced;
          Alcotest.test_case "observe metered" `Quick test_observe_metered;
          Alcotest.test_case "write_run replays" `Quick test_write_run_replays;
          Alcotest.test_case "jobs invariant" `Quick test_trace_jobs_invariant;
          Alcotest.test_case "replay re-derives" `Quick test_trace_replay_rederives;
          Alcotest.test_case "query lifecycle spans" `Quick test_replay_qspans;
          Alcotest.test_case "catalog buffering" `Slow test_catalog_trace_jobs_invariant;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fresh bijection" `Quick test_oracle_fresh_bijection;
          Alcotest.test_case "probe_known uncounted" `Quick test_probe_known_uncounted;
        ] );
      ( "misc",
        [
          Alcotest.test_case "shortfall marker" `Quick test_shortfall_marker;
          Alcotest.test_case "timing spans" `Quick test_timing_spans;
        ] );
      ( "bench-history",
        [
          Alcotest.test_case "v1 and v2 schemas" `Quick test_bench_history_schemas;
          Alcotest.test_case "trailing baseline" `Quick
            test_bench_history_trailing_baseline;
          Alcotest.test_case "parse error cites line" `Quick
            test_bench_history_parse_error_cites_line;
          Alcotest.test_case "diff lists shared metrics" `Quick
            test_bench_history_diff;
          Alcotest.test_case "committed files parse" `Quick
            test_bench_history_committed_files;
          Alcotest.test_case "churn-stepper row" `Quick
            test_bench_history_churn_step;
        ] );
    ]
