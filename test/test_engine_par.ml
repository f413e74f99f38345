(* Tests for the deterministic domain pool and the parallel trial
   engine: scheduling must never show in any result — every entry point
   has to produce bit-identical output for every job count. *)

let jobs_under_test = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Engine_par.Pool.map ~jobs f xs))
    jobs_under_test

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Engine_par.Pool.map ~jobs:4 (fun x -> x) [||])

let test_collect_prefix_contains_trigger () =
  (* The returned prefix must include the first index satisfying
     [until], for any job count. *)
  List.iter
    (fun jobs ->
      let prefix =
        Engine_par.Pool.collect_prefix ~jobs ~limit:50
          ~until:(fun r -> r >= 17)
          (fun i -> i)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d reaches trigger" jobs)
        true
        (Array.length prefix >= 18);
      Array.iteri
        (fun i r -> Alcotest.(check int) (Printf.sprintf "index %d" i) i r)
        prefix)
    jobs_under_test;
  (* Sequentially the prefix stops exactly at the trigger. *)
  let prefix =
    Engine_par.Pool.collect_prefix ~jobs:1 ~limit:50
      ~until:(fun r -> r >= 17)
      (fun i -> i)
  in
  Alcotest.(check int) "sequential stops at trigger" 18 (Array.length prefix)

let test_crash_barrier () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d propagates" jobs)
        (Failure "task 13 exploded")
        (fun () ->
          ignore
            (Engine_par.Pool.map ~jobs
               (fun i -> if i = 13 then failwith "task 13 exploded" else i)
               (Array.init 40 (fun i -> i)))))
    jobs_under_test

let test_nested_pool_runs_inline () =
  (* A task that itself maps through the pool must not deadlock or
     change results; the inner call runs inline on the worker. *)
  let expected = Array.init 8 (fun i -> 10 * i * (i + 1) / 2) in
  let inner i = Engine_par.Pool.map ~jobs:4 (fun k -> 10 * k) (Array.init (i + 1) Fun.id) in
  let result =
    Engine_par.Pool.map ~jobs:4
      (fun i -> Array.fold_left ( + ) 0 (inner i))
      (Array.init 8 Fun.id)
  in
  Alcotest.(check (array int)) "nested sums" expected result

let test_invalid_arguments () =
  Alcotest.check_raises "jobs" (Invalid_argument "Pool.collect_prefix: jobs must be positive")
    (fun () ->
      ignore
        (Engine_par.Pool.collect_prefix ~jobs:0 ~limit:1 ~until:(fun _ -> false) Fun.id));
  Alcotest.check_raises "default jobs" (Invalid_argument "Pool.set_default_jobs: jobs must be positive")
    (fun () -> Engine_par.Pool.set_default_jobs 0)

(* ------------------------------------------------------------------ *)
(* Trial.run determinism across job counts                            *)

let cube = Topology.Hypercube.graph 5

let bfs_spec ?budget ~p () =
  Experiments.Trial.spec ?budget ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source:_ ~target:_ -> Routing.Local_bfs.router)

let randomized_spec ~p () =
  (* Exercises the per-attempt stream: the router's probe order is
     random but derived from the attempt index, so it too must be
     jobs-invariant. *)
  Experiments.Trial.spec ~graph:cube ~p ~source:0 ~target:31
    (fun rand ~source:_ ~target:_ -> Routing.Local_bfs.router_randomized rand)

let segment_spec ~p () =
  Experiments.Trial.spec ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source ~target -> Routing.Path_follow.hypercube ~n:5 ~source ~target)

let check_jobs_invariant name ~seed ~trials ?max_attempts spec =
  let run jobs =
    Experiments.Trial.run ~jobs
      (Prng.Stream.create seed)
      ~trials ?max_attempts spec
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      (* Stdlib.compare, not (=): empty summaries hold nan min/max. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d = jobs=1" name jobs)
        true
        (Stdlib.compare reference (run jobs) = 0))
    [ 2; 3; 4; 7 ]

let test_run_jobs_invariant () =
  check_jobs_invariant "bfs p=0.7" ~seed:11L ~trials:10 (bfs_spec ~p:0.7 ());
  check_jobs_invariant "bfs p=0.5 rejections" ~seed:19L ~trials:12 (bfs_spec ~p:0.5 ());
  check_jobs_invariant "bfs p=0 exhausts" ~seed:13L ~trials:3 ~max_attempts:20
    (bfs_spec ~p:0.0 ());
  check_jobs_invariant "bfs budget censors" ~seed:12L ~trials:5
    (bfs_spec ~budget:3 ~p:0.9 ());
  check_jobs_invariant "randomized router" ~seed:21L ~trials:10
    (randomized_spec ~p:0.6 ());
  check_jobs_invariant "segment router" ~seed:22L ~trials:10 (segment_spec ~p:0.6 ())

let test_run_default_jobs () =
  (* run at the ambient default (1 job) and run ~jobs:4 must agree. *)
  let spec = bfs_spec ~p:0.6 () in
  let a = Experiments.Trial.run (Prng.Stream.create 31L) ~trials:8 spec in
  let b = Experiments.Trial.run ~jobs:4 (Prng.Stream.create 31L) ~trials:8 spec in
  Alcotest.(check bool) "identical" true (Stdlib.compare a b = 0)

let test_report_byte_identical () =
  (* End to end: a full experiment report, rendered, through the
     ambient default job count. E15 includes the randomized-probe-order
     ablation, the hardest case. *)
  let render jobs =
    Engine_par.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Engine_par.Pool.set_default_jobs 1)
      (fun () ->
        match Experiments.Catalog.find "E15" with
        | Some e ->
            Experiments.Report.render (e.Experiments.Catalog.run ~quick:true
               (Prng.Stream.create 23L))
        | None -> Alcotest.fail "E15 missing")
  in
  let reference = render 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) reference (render jobs))
    [ 2; 4 ]

let test_threshold_jobs_invariant () =
  let graph = Topology.Mesh.graph ~d:2 ~m:12 in
  let event ~p ~seed =
    let world = Percolation.World.create graph ~p ~seed in
    Percolation.Clusters.has_giant (Percolation.Clusters.census world)
  in
  let estimate jobs =
    Experiments.Threshold.bisect ~jobs ~trials_per_pivot:10 ~iterations:6
      ~name:"mesh" (Prng.Stream.create 41L) ~event ~lo:0.0 ~hi:1.0
  in
  let reference = estimate 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "jobs=%d" jobs) reference
        (estimate jobs))
    [ 2; 4 ]

let test_catalog_run_all_jobs_invariant () =
  (* The outer experiment-level pool composed with the inner trial
     pool; compare two cheap experiments end to end. *)
  let subset jobs =
    Engine_par.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Engine_par.Pool.set_default_jobs 1)
      (fun () ->
        List.filter_map
          (fun id ->
            Option.map
              (fun e ->
                Experiments.Report.render
                  (e.Experiments.Catalog.run ~quick:true (Prng.Stream.create 29L)))
              (Experiments.Catalog.find id))
          [ "E5"; "E10" ])
  in
  Alcotest.(check (list string)) "jobs=4 = jobs=1" (subset 1) (subset 4)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "engine_par"
    [
      ( "pool",
        [
          case "map = sequential" test_map_matches_sequential;
          case "map empty" test_map_empty;
          case "prefix contains trigger" test_collect_prefix_contains_trigger;
          case "crash barrier" test_crash_barrier;
          case "nested runs inline" test_nested_pool_runs_inline;
          case "invalid" test_invalid_arguments;
        ] );
      ( "determinism",
        [
          case "run_par jobs-invariant" test_run_jobs_invariant;
          case "run = run_par" test_run_default_jobs;
          case "report byte-identical" test_report_byte_identical;
          case "threshold jobs-invariant" test_threshold_jobs_invariant;
          case "catalog jobs-invariant" test_catalog_run_all_jobs_invariant;
        ] );
    ]
