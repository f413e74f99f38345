(* Tests for the experiments library: the conditioned trial runner, the
   report type, the catalog, and statistical sanity of selected
   experiments against exactly-known quantities. *)

module P = Percolation
module R = Routing

(* ------------------------------------------------------------------ *)
(* Trial                                                               *)

let cube = Topology.Hypercube.graph 5

let bfs_spec ?budget ~p () =
  Experiments.Trial.spec ?budget ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source:_ ~target:_ -> R.Local_bfs.router)

let test_trial_counts () =
  let stream = Prng.Stream.create 11L in
  let result = Experiments.Trial.run stream ~trials:10 (bfs_spec ~p:0.7 ()) in
  Alcotest.(check int) "ten conditioned trials" 10
    (Stats.Censored.count result.Experiments.Trial.observations);
  Alcotest.(check int) "no failures" 0 result.Experiments.Trial.failures;
  Alcotest.(check bool) "connection proportion sane" true
    (Stats.Proportion.estimate result.Experiments.Trial.connection > 0.0)

let test_trial_deterministic () =
  let run () =
    Experiments.Trial.run (Prng.Stream.create 11L) ~trials:5 (bfs_spec ~p:0.6 ())
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same medians" true
    (Experiments.Trial.median_observation a = Experiments.Trial.median_observation b);
  Alcotest.(check (float 1e-9)) "same means"
    (Experiments.Trial.mean_probes_lower_bound a)
    (Experiments.Trial.mean_probes_lower_bound b)

let test_trial_budget_censors () =
  let stream = Prng.Stream.create 12L in
  let result = Experiments.Trial.run stream ~trials:5 (bfs_spec ~budget:3 ~p:0.9 ()) in
  (* BFS to the antipode at p=0.9 needs far more than 3 probes. *)
  Alcotest.(check int) "all censored" 5
    (Stats.Censored.censored_count result.Experiments.Trial.observations)

let test_trial_impossible_conditioning () =
  (* p = 0: no world is ever connected; the runner must stop at
     max_attempts with zero observations. *)
  let stream = Prng.Stream.create 13L in
  let result =
    Experiments.Trial.run stream ~trials:3 ~max_attempts:20 (bfs_spec ~p:0.0 ())
  in
  Alcotest.(check int) "no observations" 0
    (Stats.Censored.count result.Experiments.Trial.observations);
  Alcotest.(check int) "attempts exhausted" 20
    result.Experiments.Trial.connection.Stats.Proportion.trials;
  Alcotest.(check (float 1e-9)) "zero connectivity" 0.0
    (Stats.Proportion.estimate result.Experiments.Trial.connection)

let test_trial_shortfall () =
  (* Low p with a tight attempt cap: fewer conditioned measurements than
     requested, and the shortfall is reported rather than silent. *)
  let stream = Prng.Stream.create 13L in
  let result =
    Experiments.Trial.run stream ~trials:5 ~max_attempts:25 (bfs_spec ~p:0.25 ())
  in
  let measured = Stats.Censored.count result.Experiments.Trial.observations in
  Alcotest.(check int) "requested recorded" 5 result.Experiments.Trial.requested;
  Alcotest.(check bool) "under-sampled" true (measured < 5);
  Alcotest.(check int) "shortfall" (5 - measured)
    (Experiments.Trial.shortfall result);
  (match Experiments.Trial.shortfall_note ~label:"p=0.25" result with
  | Some note ->
      Alcotest.(check bool) "note names label" true
        (String.length note > 0
        && String.sub note 0 6 = "p=0.25")
  | None -> Alcotest.fail "expected a shortfall note");
  (* A run that meets its request has zero shortfall and no note. *)
  let full =
    Experiments.Trial.run (Prng.Stream.create 11L) ~trials:4 (bfs_spec ~p:0.9 ())
  in
  Alcotest.(check int) "no shortfall" 0 (Experiments.Trial.shortfall full);
  Alcotest.(check bool) "no note" true
    (Experiments.Trial.shortfall_note ~label:"x" full = None)

let test_trial_chemical_distances_recorded () =
  let stream = Prng.Stream.create 14L in
  let result = Experiments.Trial.run stream ~trials:8 (bfs_spec ~p:0.9 ()) in
  Alcotest.(check int) "one distance per trial" 8
    (Stats.Summary.count result.Experiments.Trial.chemical_distances);
  (* Antipodal distance in H_5 is at least 5. *)
  Alcotest.(check bool) "distances >= 5" true
    (Stats.Summary.min result.Experiments.Trial.chemical_distances >= 5.0)

let test_trial_connectivity_estimate_matches_exact () =
  (* Theta graph: P[u ~ v] = 1 - (1-p^2)^d exactly; the rejection
     sampler's estimate must cover it. *)
  let d = 12 in
  let p = 0.4 in
  let graph = Topology.Theta.graph d in
  let spec =
    Experiments.Trial.spec ~graph ~p ~source:Topology.Theta.endpoint_u
      ~target:Topology.Theta.endpoint_v (fun _rand ~source:_ ~target:_ ->
        R.Local_bfs.router)
  in
  let stream = Prng.Stream.create 15L in
  let result = Experiments.Trial.run stream ~trials:100 ~max_attempts:600 spec in
  let exact = Topology.Theta.connection_probability ~d ~p in
  Alcotest.(check bool)
    (Printf.sprintf "Wilson interval covers %.3f" exact)
    true
    (Stats.Proportion.within result.Experiments.Trial.connection ~lo:exact ~hi:exact)

let test_trial_invalid () =
  let stream = Prng.Stream.create 16L in
  Alcotest.check_raises "trials" (Invalid_argument "Trial.run: trials must be positive")
    (fun () -> ignore (Experiments.Trial.run stream ~trials:0 (bfs_spec ~p:0.5 ())))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let sample_report () =
  let table =
    Stats.Table.create ~headers:[ "x"; "y" ] |> fun t -> Stats.Table.add_row t [ "1"; "2" ]
  in
  Experiments.Report.make ~id:"T1" ~title:"test" ~claim:"claimed" ~seed:7L
    ~notes:[ "a note" ]
    [ ("caption", table) ]

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_report_render () =
  let rendered = Experiments.Report.render (sample_report ()) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s" fragment)
        true
        (contains rendered fragment))
    [ "T1"; "test"; "claimed"; "caption"; "a note"; "Seed: 7" ]

let test_report_csv () =
  match Experiments.Report.render_csv (sample_report ()) with
  | [ (caption, csv) ] ->
      Alcotest.(check string) "caption" "caption" caption;
      Alcotest.(check string) "csv" "x,y\n1,2\n" csv
  | _ -> Alcotest.fail "one table expected"

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)

let test_catalog_complete () =
  Alcotest.(check int) "twenty-six experiments" 26 (List.length Experiments.Catalog.all);
  List.iteri
    (fun index e ->
      Alcotest.(check string)
        (Printf.sprintf "id %d" index)
        (Printf.sprintf "E%d" (index + 1))
        e.Experiments.Catalog.id)
    Experiments.Catalog.all

let test_catalog_find () =
  (match Experiments.Catalog.find "e7" with
  | Some e -> Alcotest.(check string) "case-insensitive" "E7" e.Experiments.Catalog.id
  | None -> Alcotest.fail "E7 missing");
  Alcotest.(check bool) "unknown" true (Experiments.Catalog.find "E99" = None)

(* ------------------------------------------------------------------ *)
(* Selected experiments, statistically checked                         *)

let test_e6_matches_recursion () =
  (* The measured TT_n connectivity must track the exact Galton–Watson
     recursion; run a tighter private version of E6's cell. *)
  let n = 7 in
  let p = 0.78 in
  let graph = Topology.Double_tree.graph n in
  let x = Topology.Double_tree.root1 and y = Topology.Double_tree.root2 ~n in
  let stream = Prng.Stream.create 17L in
  let trials = 400 in
  let successes = ref 0 in
  for trial = 1 to trials do
    let seed = Prng.Coin.derive (Prng.Stream.seed stream) trial in
    let world = P.World.create graph ~p ~seed in
    match P.Reveal.connected world x y with
    | P.Reveal.Connected _ -> incr successes
    | P.Reveal.Disconnected | P.Reveal.Unknown -> ()
  done;
  let measured = Stats.Proportion.make ~successes:!successes ~trials in
  let exact = P.Branching.double_tree_connection ~p ~n in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f covers exact %.3f"
       (Stats.Proportion.estimate measured)
       exact)
    true
    (Stats.Proportion.within measured ~lo:exact ~hi:exact)

let test_double_tree_recursion_properties () =
  (* E6's exact column: monotone in p, decreasing in n below threshold,
     q_0 = 1. *)
  let exact ~n ~p = P.Branching.double_tree_connection ~p ~n in
  Alcotest.(check (float 1e-12)) "depth 0" 1.0 (exact ~n:0 ~p:0.3);
  Alcotest.(check bool) "monotone in p" true (exact ~n:8 ~p:0.6 < exact ~n:8 ~p:0.9);
  Alcotest.(check bool) "decreasing in n below threshold" true
    (exact ~n:12 ~p:0.65 < exact ~n:6 ~p:0.65);
  (* At p = 1 connectivity is certain at any depth. *)
  Alcotest.(check (float 1e-12)) "p=1" 1.0 (exact ~n:10 ~p:1.0)

let run_quick id =
  match Experiments.Catalog.find id with
  | Some e -> e.Experiments.Catalog.run ~quick:true (Prng.Stream.create 23L)
  | None -> Alcotest.failf "experiment %s missing" id

let test_quick_experiments_produce_tables () =
  (* Smoke: each quick experiment renders a non-empty report with at
     least one populated table. The heavyweight ones are exercised by
     the bench harness; here we take the cheap half. *)
  List.iter
    (fun id ->
      let report = run_quick id in
      Alcotest.(check bool) (id ^ " has tables") true (report.Experiments.Report.tables <> []);
      let rendered = Experiments.Report.render report in
      Alcotest.(check bool) (id ^ " renders") true (String.length rendered > 100))
    [ "E5"; "E6"; "E10"; "E11"; "E13"; "E17"; "E19"; "E22"; "E23"; "E24" ]

let test_converted_sweeps_jobs_identical () =
  (* Every experiment must stay byte-identical across job counts: the
     coupled sweeps moved their randomness from per-p coin hashing to
     one shared uniform sample, and every library sweep (E6, E17, E19,
     E22, E23, E25) runs on one Runner grid, so the parallel engine must
     not be able to tell. *)
  let saved = Engine_par.Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Engine_par.Pool.set_default_jobs saved)
    (fun () ->
      List.iter
        (fun id ->
          let render jobs =
            Engine_par.Pool.set_default_jobs jobs;
            Experiments.Report.render (run_quick id)
          in
          Alcotest.(check string)
            (id ^ " identical under jobs=1 and jobs=4")
            (render 1) (render 4))
        (List.map (fun e -> e.Experiments.Catalog.id) Experiments.Catalog.all))

let test_e10_connectivity_close_to_exact () =
  let report = run_quick "E10" in
  (* Structural check only: the table has one row per d value. *)
  match report.Experiments.Report.tables with
  | [ (_, table) ] ->
      let csv = Stats.Table.to_csv table in
      let rows = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
      Alcotest.(check int) "header + 2 rows" 3 (List.length rows)
  | _ -> Alcotest.fail "one table expected"

(* ------------------------------------------------------------------ *)
(* Threshold and the Runner grid                                       *)

let test_threshold_success_rate () =
  let stream = Prng.Stream.create 6L in
  let rate =
    Experiments.Threshold.success_rate ~name:"coin" stream ~trials:200
      ~event:(fun ~seed -> Prng.Coin.bernoulli ~seed ~p:0.3 0)
  in
  Alcotest.(check bool) (Printf.sprintf "rate %.2f near 0.3" rate) true
    (rate > 0.2 && rate < 0.4)

let test_threshold_bisect_known () =
  (* Event: a single coin is open at probability p — the "threshold" of
     the median success probability 1/2 is p = 1/2. *)
  let stream = Prng.Stream.create 7L in
  let estimate =
    Experiments.Threshold.bisect ~trials_per_pivot:400 ~name:"coins" stream
      ~event:(fun ~p ~seed ->
        let opens = ref 0 in
        for i = 0 to 99 do
          if Prng.Coin.bernoulli ~seed ~p i then incr opens
        done;
        !opens >= 50)
      ~lo:0.0 ~hi:1.0
  in
  Alcotest.(check bool) (Printf.sprintf "estimate %.3f near 0.5" estimate) true
    (estimate > 0.45 && estimate < 0.55)

let test_threshold_sweep () =
  (* A p sweep on the grid: one row per trial, one column per p, the
     trial's seed shared across the row. *)
  let stream = Prng.Stream.create 8L in
  let ps = [| 0.1; 0.9 |] in
  let rows =
    (Experiments.Runner.grid ~name:"coin-sweep" stream ~cells:1 ~trials:100
       (fun _ trial ->
         let seed = Prng.Coin.derive (Prng.Stream.seed stream) (trial + 1) in
         Array.map (fun p -> if Prng.Coin.bernoulli ~seed ~p 0 then 1.0 else 0.0) ps))
      .(0)
  in
  Alcotest.(check int) "every trial measured" 100 (Array.length rows);
  Alcotest.(check bool) "ordered" true
    (Experiments.Runner.mean rows 0 < Experiments.Runner.mean rows 1)

let test_threshold_mesh_half () =
  (* End-to-end: the 2-d mesh giant threshold should land near 1/2. A
     small grid keeps this fast; tolerance is generous. *)
  let graph = Topology.Mesh.graph ~d:2 ~m:24 in
  let stream = Prng.Stream.create 9L in
  let event ~p ~seed =
    let world = P.World.create graph ~p ~seed in
    P.Clusters.has_giant ~threshold:0.2 (P.Clusters.census world)
  in
  let estimate =
    Experiments.Threshold.bisect ~trials_per_pivot:20 ~iterations:8 ~name:"mesh"
      stream ~event ~lo:0.1 ~hi:0.9
  in
  Alcotest.(check bool) (Printf.sprintf "p_c estimate %.3f near 0.5" estimate) true
    (estimate > 0.38 && estimate < 0.62)

let test_scaling_measured_curve_monotone () =
  (* Giant fraction must increase with p (up to sampling noise, which the
     shared coupling removes entirely: same seeds, monotone worlds). *)
  let stream = Prng.Stream.create 71L in
  let curves =
    Experiments.E19_finite_size_scaling.giant_curves ~name:"curve" stream
      ~world_at:(fun graph ~seed p -> P.World.create graph ~p ~seed)
      ~graphs:[ (12, Topology.Mesh.graph ~d:2 ~m:12) ]
      ~ps:[ 0.3; 0.5; 0.7 ] ~trials:5
  in
  match curves with
  | [ { P.Scaling.size = 12; points = [ (_, a); (_, b); (_, c) ] } ] ->
      Alcotest.(check bool) "increasing" true (a <= b && b <= c)
  | _ -> Alcotest.fail "one curve of three points expected"

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "experiments"
    [
      ( "trial",
        [
          case "counts" test_trial_counts;
          case "deterministic" test_trial_deterministic;
          case "budget censors" test_trial_budget_censors;
          case "impossible conditioning" test_trial_impossible_conditioning;
          case "shortfall surfaced" test_trial_shortfall;
          case "chemical distances" test_trial_chemical_distances_recorded;
          case "connectivity matches exact" test_trial_connectivity_estimate_matches_exact;
          case "invalid" test_trial_invalid;
        ] );
      ("report", [ case "render" test_report_render; case "csv" test_report_csv ]);
      ( "threshold",
        [
          case "success rate" test_threshold_success_rate;
          case "bisect known" test_threshold_bisect_known;
          case "sweep" test_threshold_sweep;
          case "mesh p_c ~ 1/2" test_threshold_mesh_half;
        ] );
      ("scaling", [ case "measured curve monotone" test_scaling_measured_curve_monotone ]);
      ( "catalog",
        [ case "complete" test_catalog_complete; case "find" test_catalog_find ] );
      ( "science",
        [
          case "E6 matches GW recursion" test_e6_matches_recursion;
          case "recursion properties" test_double_tree_recursion_properties;
          case "quick experiments render" test_quick_experiments_produce_tables;
          case "converted sweeps: jobs-independent" test_converted_sweeps_jobs_identical;
          case "E10 table shape" test_e10_connectivity_close_to_exact;
        ] );
    ]
