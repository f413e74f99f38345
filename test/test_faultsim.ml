(* Tests for the fault-tolerance stack: deterministic fault plans,
   the supervised worker pool, and checkpoint/resume. The load-bearing
   property throughout: recoverable faults must leave every result
   byte-identical to a fault-free run, for every job count. *)

module Plan = Faultsim.Plan
module Supervisor = Engine_par.Supervisor

let with_clean_supervision f =
  Supervisor.reset_global ();
  Fun.protect
    ~finally:(fun () ->
      Supervisor.disarm ();
      Plan.set_ambient None;
      Experiments.Checkpoint.deconfigure ();
      Supervisor.reset_global ())
    f

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

let test_plan_json_round_trip () =
  let plan =
    Plan.make ~seed:42L
      [
        Plan.Crash_on_chunk 3;
        Plan.Stall_on_chunk 5;
        Plan.Flaky { rate = 0.25; max_failures = 2 };
        Plan.Die_after_chunks 10;
      ]
  in
  match Plan.of_string (Plan.to_string plan) with
  | Error message -> Alcotest.fail message
  | Ok restored ->
      Alcotest.(check bool) "round-trips" true (plan = restored)

let test_plan_spec () =
  (match Plan.of_spec "crash@3,stall@5,flaky:0.02x2,die@25,seed=7" with
  | Error message -> Alcotest.fail message
  | Ok plan ->
      Alcotest.(check int64) "seed" 7L plan.Plan.seed;
      Alcotest.(check int) "faults" 4 (List.length plan.Plan.faults);
      Alcotest.(check (option int)) "die" (Some 25) (Plan.die_after_chunks plan));
  List.iter
    (fun bad ->
      match Plan.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [ ""; "crash@"; "crash@-1"; "flaky:0.5"; "flaky:2.0x1"; "explode@3" ]

let test_injector_targets () =
  let plan = Plan.make [ Plan.Crash_on_chunk 3; Plan.Stall_on_chunk 5 ] in
  Alcotest.(check bool) "crash on (3,1)" true
    (Plan.injector plan ~chunk:3 ~attempt:1 = Supervisor.Crash);
  Alcotest.(check bool) "retry of 3 passes" true
    (Plan.injector plan ~chunk:3 ~attempt:2 = Supervisor.Pass);
  Alcotest.(check bool) "stall on (5,1)" true
    (Plan.injector plan ~chunk:5 ~attempt:1 = Supervisor.Stall);
  Alcotest.(check bool) "other chunks pass" true
    (Plan.injector plan ~chunk:4 ~attempt:1 = Supervisor.Pass)

let test_flaky_recoverable_bound () =
  (* rate 1.0 fails every attempt up to max_failures — and never the
     one after, so a budget of max_failures + 1 always recovers. *)
  let plan = Plan.make ~seed:9L [ Plan.Flaky { rate = 1.0; max_failures = 2 } ] in
  for chunk = 0 to 20 do
    Alcotest.(check bool) "attempt 1 crashes" true
      (Plan.injector plan ~chunk ~attempt:1 = Supervisor.Crash);
    Alcotest.(check bool) "attempt 2 crashes" true
      (Plan.injector plan ~chunk ~attempt:2 = Supervisor.Crash);
    Alcotest.(check bool) "attempt 3 passes" true
      (Plan.injector plan ~chunk ~attempt:3 = Supervisor.Pass)
  done

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let completed_values outcomes =
  Array.map
    (function
      | Supervisor.Completed v -> v
      | Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
    outcomes

let test_retry_recovers () =
  with_clean_supervision @@ fun () ->
  let plan = Plan.make [ Plan.Crash_on_chunk 2; Plan.Stall_on_chunk 4 ] in
  let inject = Plan.injector plan in
  List.iter
    (fun jobs ->
      Supervisor.reset_global ();
      let reference =
        Engine_par.Pool.collect_prefix ~jobs:1 ~limit:10
          ~until:(fun _ -> false)
          (fun i -> i * i)
      in
      let outcomes, summary =
        Supervisor.collect_prefix ~jobs ~inject ~limit:10
          ~until:(fun _ -> false)
          (fun i -> i * i)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d values identical" jobs)
        reference (completed_values outcomes);
      Alcotest.(check int) "two retries" 2 summary.Supervisor.retries;
      Alcotest.(check (list int)) "nothing quarantined" []
        summary.Supervisor.quarantined;
      Alcotest.(check bool) "recoverable" false (Supervisor.unrecoverable summary))
    [ 1; 4 ]

let test_quarantine_after_budget () =
  with_clean_supervision @@ fun () ->
  let inject ~chunk ~attempt:_ =
    if chunk = 5 then Supervisor.Crash else Supervisor.Pass
  in
  let policy =
    { Supervisor.default_policy with Supervisor.backoff_s = 0.0 }
  in
  let outcomes, summary =
    Supervisor.collect_prefix ~jobs:2 ~policy ~inject ~limit:8
      ~until:(fun _ -> false)
      (fun i -> i)
  in
  (match outcomes.(5) with
  | Supervisor.Quarantined failures ->
      Alcotest.(check int) "one failure per attempt"
        policy.Supervisor.max_attempts (List.length failures);
      List.iteri
        (fun i (f : Supervisor.failure) ->
          Alcotest.(check int) "chunk" 5 f.Supervisor.chunk;
          Alcotest.(check int) "attempt" (i + 1) f.Supervisor.attempt)
        failures
  | Supervisor.Completed _ -> Alcotest.fail "chunk 5 should be quarantined");
  Array.iteri
    (fun i o ->
      if i <> 5 then
        match o with
        | Supervisor.Completed v -> Alcotest.(check int) "value" i v
        | Supervisor.Quarantined _ -> Alcotest.failf "chunk %d quarantined" i)
    outcomes;
  Alcotest.(check (list int)) "quarantined list" [ 5 ]
    summary.Supervisor.quarantined;
  Alcotest.(check bool) "unrecoverable" true (Supervisor.unrecoverable summary);
  Alcotest.(check bool) "global sees it" true
    (Supervisor.unrecoverable (Supervisor.global_summary ()))

let test_quarantine_counted_per_run () =
  (* Two runs that each lose their chunk 0 have lost two chunks: the
     global summary keeps one entry per lost chunk per run. *)
  with_clean_supervision @@ fun () ->
  let inject ~chunk ~attempt:_ =
    if chunk = 0 then Supervisor.Crash else Supervisor.Pass
  in
  let policy =
    { Supervisor.default_policy with Supervisor.max_attempts = 1 }
  in
  for _ = 1 to 2 do
    ignore
      (Supervisor.collect_prefix ~jobs:1 ~policy ~inject ~limit:3
         ~until:(fun _ -> false)
         (fun i -> i))
  done;
  Alcotest.(check (list int)) "one entry per run" [ 0; 0 ]
    (Supervisor.global_summary ()).Supervisor.quarantined;
  Alcotest.(check (option int)) "supervisor.quarantined" (Some 2)
    (List.assoc_opt "supervisor.quarantined"
       (Obs.Metrics.counters (Supervisor.metrics_snapshot ())))

let test_deadline_expiry () =
  with_clean_supervision @@ fun () ->
  let policy =
    {
      Supervisor.max_attempts = 2;
      backoff_s = 0.0;
      max_backoff_s = 0.0;
      deadline_s = Some 0.005;
    }
  in
  let work i =
    if i = 3 then begin
      Unix.sleepf 0.02;
      Supervisor.poll ();
      i
    end
    else i
  in
  let outcomes, summary =
    Supervisor.collect_prefix ~jobs:2 ~policy ~limit:6
      ~until:(fun _ -> false)
      work
  in
  (match outcomes.(3) with
  | Supervisor.Quarantined failures ->
      List.iter
        (fun (f : Supervisor.failure) ->
          Alcotest.(check string) "kind" "deadline"
            (Supervisor.kind_string f.Supervisor.kind))
        failures
  | Supervisor.Completed _ -> Alcotest.fail "chunk 3 should miss its deadline");
  Alcotest.(check int) "both attempts failed" 2 summary.Supervisor.retries

let test_faults_json () =
  let summary =
    {
      Supervisor.retries = 2;
      failures =
        [ { Supervisor.chunk = 3; attempt = 1; kind = Supervisor.Injected_crash } ];
      quarantined = [ 7 ];
      failed_units = [ "E9: boom" ];
    }
  in
  let json = Obs.Json.to_string (Supervisor.summary_json summary) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %s" needle) true
        (let hl = String.length json and nl = String.length needle in
         let rec at i =
           i + nl <= hl && (String.sub json i nl = needle || at (i + 1))
         in
         at 0))
    [ "faults/v1"; "injected_crash"; "\"unrecoverable\": true"; "E9: boom" ]

let test_exit_codes () =
  Alcotest.(check int) "worst empty" 0 (Verdict.Exit_code.worst []);
  Alcotest.(check int) "worst picks faults" 5
    (Verdict.Exit_code.worst
       [ Verdict.Exit_code.drift; Verdict.Exit_code.unrecoverable_faults ]);
  Alcotest.(check int) "codes are distinct" 6
    (List.length
       (List.sort_uniq compare
          Verdict.Exit_code.
            [ ok; error; claim_fail; strict_shortfall; drift; unrecoverable_faults ]))

(* ------------------------------------------------------------------ *)
(* Trial integration: recoverable chaos never changes a result          *)

let cube = Topology.Hypercube.graph 5

let bfs_spec ~p =
  Experiments.Trial.spec ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source:_ ~target:_ -> Routing.Local_bfs.router)

let run_trial ?jobs () =
  Experiments.Trial.run ?jobs (Prng.Stream.create 17L) ~trials:6
    (bfs_spec ~p:0.7)

let test_recoverable_plan_byte_identity_qcheck =
  (* Any recoverable plan — targeted crashes and stalls plus flaky noise
     kept under the attempt budget — must leave the result bit-identical
     to the fault-free run, at jobs 1 and 4. *)
  let reference = run_trial ~jobs:1 () in
  let gen =
    QCheck2.Gen.(
      let* crash = int_bound 30 in
      let* stall = int_bound 30 in
      let* rate = float_bound_inclusive 0.9 in
      let* max_failures = int_bound 2 in
      let* seed = int_bound 10_000 in
      return (crash, stall, rate, max_failures, seed))
  in
  QCheck2.Test.make ~count:12
    ~name:"recoverable plan => byte-identical trial result" gen
    (fun (crash, stall, rate, max_failures, seed) ->
      let plan =
        Plan.make ~seed:(Int64.of_int seed)
          [
            Plan.Crash_on_chunk crash;
            Plan.Stall_on_chunk stall;
            Plan.Flaky { rate; max_failures };
          ]
      in
      with_clean_supervision @@ fun () ->
      Plan.set_ambient (Some plan);
      List.for_all
        (fun jobs -> Stdlib.compare reference (run_trial ~jobs ()) = 0)
        [ 1; 4 ])

let test_supervised_only_when_armed () =
  (* Without a plan, a policy or a checkpoint, the engine takes the
     plain pool path and the supervisor records nothing. *)
  with_clean_supervision @@ fun () ->
  let reference = run_trial ~jobs:2 () in
  let summary = Supervisor.global_summary () in
  Alcotest.(check int) "no retries" 0 summary.Supervisor.retries;
  (* And the supervised path with an empty plan changes nothing. *)
  Plan.set_ambient (Some (Plan.make []));
  Alcotest.(check bool) "empty plan identical" true
    (Stdlib.compare reference (run_trial ~jobs:2 ()) = 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                   *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "faultsim_test_%d_%d" (Unix.getpid ()) !counter)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () -> f dir)

let configure_exn ~dir ~resume =
  match Experiments.Checkpoint.configure ~dir ~resume with
  | Ok () -> ()
  | Error message -> Alcotest.fail message

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A probe budget most conditioned routings exceed: its journal holds
   [Budget_exceeded] cells ("t": "b") next to the found ones. *)
let run_budgeted_trial ?jobs () =
  Experiments.Trial.run ?jobs (Prng.Stream.create 17L) ~trials:6
    (Experiments.Trial.spec ~budget:12 ~graph:cube ~p:0.7 ~source:0 ~target:31
       (fun _rand ~source:_ ~target:_ -> Routing.Local_bfs.router))

let test_checkpoint_round_trip () =
  List.iter
    (fun (run, needle) ->
      with_dir @@ fun dir ->
      with_clean_supervision @@ fun () ->
      configure_exn ~dir ~resume:false;
      let first = run ~jobs:2 () in
      let written = Experiments.Checkpoint.appended () in
      Alcotest.(check bool) "journal grew" true (written > 0);
      Experiments.Checkpoint.deconfigure ();
      Option.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "journal holds %s cells" needle)
            true
            (contains (read_file (Experiments.Checkpoint.file ~dir)) needle))
        needle;
      (* Resume: every chunk restores, none recomputes, result identical —
         including under a different job count. *)
      configure_exn ~dir ~resume:true;
      let second = run ~jobs:4 () in
      Alcotest.(check bool) "resumed result identical" true
        (Stdlib.compare first second = 0);
      Alcotest.(check int) "nothing recomputed" 0 (Experiments.Checkpoint.appended ());
      Alcotest.(check bool) "chunks restored" true
        (Experiments.Checkpoint.restored () > 0))
    [
      ((fun ~jobs -> run_trial ~jobs), None);
      ((fun ~jobs -> run_budgeted_trial ~jobs), Some "\"t\": \"b\"");
    ]

let test_checkpoint_resume_computes_nothing () =
  (* Trial's [until] fires on the jobs-2 journal's in-order prefix, so a
     resume at jobs 4 must dispatch nothing. Four domains racing
     through restored chunks would dispense one past the journal in
     some schedules and append it; the loop gives them the chance. *)
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let first = run_trial ~jobs:2 () in
  let written = Experiments.Checkpoint.appended () in
  Experiments.Checkpoint.deconfigure ();
  for round = 1 to 40 do
    configure_exn ~dir ~resume:true;
    let resumed = run_trial ~jobs:4 () in
    let label what = Printf.sprintf "resume %d: %s" round what in
    Alcotest.(check bool) (label "identical") true (Stdlib.compare first resumed = 0);
    Alcotest.(check int) (label "nothing recomputed") 0
      (Experiments.Checkpoint.appended ());
    Alcotest.(check bool) (label "each chunk restored at most once") true
      (let restored = Experiments.Checkpoint.restored () in
       restored > 0 && restored <= written);
    Experiments.Checkpoint.deconfigure ()
  done

let test_checkpoint_key_isolation () =
  (* A different seed must miss the journal, not restore a wrong
     result. *)
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  ignore (run_trial ~jobs:1 ());
  Experiments.Checkpoint.deconfigure ();
  configure_exn ~dir ~resume:true;
  let other =
    Experiments.Trial.run ~jobs:1 (Prng.Stream.create 18L) ~trials:6
      (bfs_spec ~p:0.7)
  in
  Alcotest.(check int) "different seed restores nothing" 0
    (Experiments.Checkpoint.restored ());
  Alcotest.(check bool) "recomputed instead" true
    (Experiments.Checkpoint.appended () > 0);
  ignore other

let test_resume_after_torn_line () =
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let reference = run_trial ~jobs:1 () in
  Experiments.Checkpoint.deconfigure ();
  (* Tear the journal mid-line, as a kill -9 during the final append
     would: the loader must shrug and recompute only the torn chunk. *)
  let path = Experiments.Checkpoint.file ~dir in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "journal long enough to tear" true
    (String.length contents > 30);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents - 17)));
  configure_exn ~dir ~resume:true;
  let resumed = run_trial ~jobs:2 () in
  Alcotest.(check bool) "torn journal still resumes byte-identically" true
    (Stdlib.compare reference resumed = 0);
  Alcotest.(check bool) "some chunks restored" true
    (Experiments.Checkpoint.restored () > 0);
  Alcotest.(check bool) "the torn chunk recomputed" true
    (Experiments.Checkpoint.appended () > 0)

let replace_first ~sub ~by s =
  let sl = String.length sub in
  let rec find i =
    if i + sl > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i sl = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + sl) (String.length s - i - sl)

let test_resume_after_rejected_cells () =
  (* A chunk line under the right key whose cells the codec cannot
     decode is a miss: recomputed, appended again, and the result is
     byte-identical. *)
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let reference = run_trial ~jobs:1 () in
  let written = Experiments.Checkpoint.appended () in
  Experiments.Checkpoint.deconfigure ();
  let path = Experiments.Checkpoint.file ~dir in
  let contents = read_file path in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (replace_first ~sub:"{\"t\": \"" ~by:"{\"t\": \"?" contents));
  configure_exn ~dir ~resume:true;
  let resumed = run_trial ~jobs:1 () in
  Alcotest.(check bool) "byte-identical" true
    (Stdlib.compare reference resumed = 0);
  Alcotest.(check int) "the rejected chunk recomputed" 1
    (Experiments.Checkpoint.appended ());
  Alcotest.(check int) "the others restored" (written - 1)
    (Experiments.Checkpoint.restored ());
  Experiments.Checkpoint.deconfigure ();
  let lines text = List.length (String.split_on_char '\n' text) in
  Alcotest.(check int) "one line appended to the journal"
    (lines contents + 1) (lines (read_file path))

let floats_round_trip_qcheck =
  (* Through the journal's text form, as a resume reads it. *)
  let special =
    [
      nan; -.nan; Int64.float_of_bits 0x7ff0_0000_0000_0001L;
      Int64.float_of_bits 0xfff8_dead_beef_0001L; 0.0; -0.0; infinity;
      neg_infinity; Float.min_float; 4.9e-324; -2.2e-310; Float.max_float;
      Float.epsilon;
    ]
  in
  let gen =
    QCheck2.Gen.(
      array_size (int_bound 6)
        (oneof [ map Int64.float_of_bits int64; oneofl special; float ]))
  in
  QCheck2.Test.make ~count:300 ~name:"Checkpoint.floats round-trips bit for bit"
    gen (fun cell ->
      let codec = Experiments.Checkpoint.floats in
      match Obs.Json.of_string (Obs.Json.to_string (codec.to_json cell)) with
      | Error message -> QCheck2.Test.fail_report message
      | Ok json -> (
          match codec.of_json json with
          | None -> false
          | Some back ->
              Array.length back = Array.length cell
              && Array.for_all2
                   (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
                   cell back))

(* ------------------------------------------------------------------ *)
(* Runner over float-vector cells: the non-trial workload path       *)

(* One churned gossip run per index — the unit of work E26 puts through
   the runner, so these tests pin the dynamic-fault determinism story
   end to end: pure per-index streams in, byte-identical cells out. *)
let runner_compute stream index =
  let substream = Prng.Stream.split stream index in
  let world =
    Percolation.World.create cube ~p:1.0
      ~seed:(Prng.Coin.derive (Prng.Stream.seed substream) 1)
  in
  let churn =
    Netsim.Churn.make ~fail:0.2 ~repair:0.4
      ~seed:(Prng.Coin.derive (Prng.Stream.seed substream) 2)
      ()
  in
  let engine = Netsim.Engine.create ~churn world Netsim.Gossip.protocol in
  Netsim.Gossip.start engine ~source:0;
  for _ = 1 to 20 do
    Netsim.Engine.run_round engine
  done;
  let m = Netsim.Engine.metrics engine in
  [|
    float_of_int (Netsim.Gossip.informed_count engine);
    float_of_int (Netsim.Metrics.messages_sent m);
    float_of_int (Netsim.Metrics.churn_blocked m);
  |]

(* Three chunks: indices 0..3, 4..7 and 8..9. *)
let run_runner_chunks ?jobs () =
  let stream = Prng.Stream.create 23L in
  Experiments.Runner.run ?jobs ~key:(lazy "test-runner;seed=23")
    ~codec:Experiments.Checkpoint.floats ~count:10 (runner_compute stream)

let run_runner ?jobs () =
  let chunks, _faults = run_runner_chunks ?jobs () in
  Array.concat (Array.to_list (Array.map Option.get chunks))

(* The grid over the same computation: cell [c], trial [t] is index
   [c * grid_trials + t] of [run_runner], so chunk 1 (indices 4..7)
   holds trial 4 of cell 0 and trials 0..2 of cell 1. *)
let grid_trials = 5

let run_grid ?jobs () =
  let stream = Prng.Stream.create 23L in
  Experiments.Runner.grid ?jobs ~name:"test-grid" stream ~cells:2
    ~trials:grid_trials (fun cell trial ->
      runner_compute stream ((cell * grid_trials) + trial))

(* Each Runner test runs on both inputs: a name, the run, and a check
   that its cells are non-trivial. *)
type runner_input =
  | Input : string * (?jobs:int -> unit -> 'a) * ('a -> bool) -> runner_input

let runner_inputs =
  let blocked cell = cell.(2) > 0.0 in
  [
    Input ("run", run_runner, Array.exists blocked);
    Input ("grid", run_grid, Array.exists (Array.exists blocked));
  ]

let test_runner_jobs_identical () =
  List.iter
    (fun (Input (name, run, non_trivial)) ->
      with_clean_supervision @@ fun () ->
      let reference = run ~jobs:1 () in
      Alcotest.(check bool) (name ^ ": cells non-trivial") true (non_trivial reference);
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs %d identical" name jobs)
            true
            (Stdlib.compare reference (run ~jobs ()) = 0))
        [ 2; 4 ])
    runner_inputs

let test_runner_crash_plan_identical () =
  (* A recoverable crash@K plan retries the chunk exactly; the churned
     cells must come out bit-identical to the fault-free run. *)
  List.iter
    (fun (Input (name, run, _)) ->
      let reference = with_clean_supervision (fun () -> run ~jobs:1 ()) in
      with_clean_supervision @@ fun () ->
      Plan.set_ambient
        (Some (Plan.make ~seed:5L [ Plan.Crash_on_chunk 1; Plan.Crash_on_chunk 2 ]));
      let chaotic = run ~jobs:4 () in
      Alcotest.(check bool) (name ^ ": crash plan byte-identical") true
        (Stdlib.compare reference chaotic = 0);
      let summary = Supervisor.global_summary () in
      Alcotest.(check bool) (name ^ ": the plan actually fired") true
        (summary.Supervisor.retries > 0))
    runner_inputs

let test_runner_checkpoint_resume () =
  List.iter
    (fun (Input (name, run, _)) ->
      with_dir @@ fun dir ->
      let reference = with_clean_supervision (fun () -> run ~jobs:1 ()) in
      with_clean_supervision @@ fun () ->
      configure_exn ~dir ~resume:false;
      let first = run ~jobs:1 () in
      Alcotest.(check bool) (name ^ ": value chunks journaled") true
        (Experiments.Checkpoint.appended () > 0);
      Experiments.Checkpoint.deconfigure ();
      configure_exn ~dir ~resume:true;
      let resumed = run ~jobs:4 () in
      Alcotest.(check bool) (name ^ ": resume byte-identical") true
        (Stdlib.compare first resumed = 0);
      Alcotest.(check bool) (name ^ ": and matches the unsupervised run") true
        (Stdlib.compare reference resumed = 0);
      Alcotest.(check int) (name ^ ": nothing recomputed") 0
        (Experiments.Checkpoint.appended ());
      Alcotest.(check bool) (name ^ ": cells restored from the journal") true
        (Experiments.Checkpoint.restored () > 0))
    runner_inputs

let test_runner_grid_quarantine () =
  (* With one attempt per chunk, crash@1 loses chunk 1 for good: cell 0
     keeps trials 0..3 and cell 1 trials 3..4, each in trial order. *)
  let cells = with_clean_supervision (fun () -> run_runner ~jobs:1 ()) in
  let reference = with_clean_supervision (fun () -> run_grid ~jobs:1 ()) in
  Alcotest.(check bool) "grid cells are the runner's, cut by cell" true
    (Stdlib.compare reference
       [| Array.sub cells 0 grid_trials; Array.sub cells grid_trials grid_trials |]
    = 0);
  List.iter
    (fun jobs ->
      with_clean_supervision @@ fun () ->
      Supervisor.arm { Supervisor.default_policy with Supervisor.max_attempts = 1 };
      Plan.set_ambient (Some (Plan.make [ Plan.Crash_on_chunk 1 ]));
      let lossy = run_grid ~jobs () in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: exactly chunk 1's trials missing" jobs)
        true
        (Stdlib.compare lossy
           [| Array.sub reference.(0) 0 4; Array.sub reference.(1) 3 2 |]
        = 0);
      Alcotest.(check (list int)) "chunk 1 quarantined" [ 1 ]
        (Supervisor.global_summary ()).Supervisor.quarantined)
    [ 1; 4 ]

let test_runner_resume_under_crash_plan () =
  (* One attempt per chunk and crash@1 leave a journal with a gap: it
     holds chunks 0 and 2. The resume restores chunk 0, the prefix
     before the gap, without supervising it, so crash@0 never fires.
     Chunk 2 comes after the gap and is dispatched with chunk 1, so it
     meets the injector like a computed chunk: crash@2 loses it,
     although the journal holds it. *)
  let reference =
    with_clean_supervision (fun () -> fst (run_runner_chunks ~jobs:1 ()))
  in
  let one_attempt faults =
    Supervisor.arm { Supervisor.default_policy with Supervisor.max_attempts = 1 };
    Plan.set_ambient (Some (Plan.make faults))
  in
  List.iter
    (fun jobs ->
      with_dir @@ fun dir ->
      with_clean_supervision @@ fun () ->
      let label what = Printf.sprintf "jobs %d: %s" jobs what in
      configure_exn ~dir ~resume:false;
      one_attempt [ Plan.Crash_on_chunk 1 ];
      ignore (run_runner_chunks ~jobs:1 ());
      Alcotest.(check int) (label "chunks 0 and 2 journaled") 2
        (Experiments.Checkpoint.appended ());
      Experiments.Checkpoint.deconfigure ();
      configure_exn ~dir ~resume:true;
      one_attempt [ Plan.Crash_on_chunk 0; Plan.Crash_on_chunk 2 ];
      let chunks, summary = run_runner_chunks ~jobs () in
      Alcotest.(check bool) (label "chunks 0 and 1 as the clean run, 2 lost") true
        (Stdlib.compare chunks [| reference.(0); reference.(1); None |] = 0);
      Alcotest.(check (list (pair int int)))
        (label "only chunk 2 injected, once") [ (2, 1) ]
        (List.map
           (fun (f : Supervisor.failure) -> (f.Supervisor.chunk, f.Supervisor.attempt))
           summary.Supervisor.failures);
      Alcotest.(check (list int)) (label "chunk 2 quarantined") [ 2 ]
        summary.Supervisor.quarantined;
      Alcotest.(check int) (label "chunk 0 restored") 1
        (Experiments.Checkpoint.restored ());
      Alcotest.(check int) (label "chunk 1 computed and appended") 1
        (Experiments.Checkpoint.appended ()))
    [ 1; 4 ]

let test_runner_vchunk_resume () =
  (* Journals written before the single cell format tagged float-vector
     chunks [vchunk]; they must still restore every chunk. *)
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let first = run_runner ~jobs:1 () in
  let written = Experiments.Checkpoint.appended () in
  Experiments.Checkpoint.deconfigure ();
  let path = Experiments.Checkpoint.file ~dir in
  let contents =
    String.split_on_char '\n' (read_file path)
    |> List.map (fun line ->
           if contains line "\"ev\": \"chunk\"" then
             replace_first ~sub:"\"ev\": \"chunk\"" ~by:"\"ev\": \"vchunk\"" line
           else line)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "rewritten as vchunk lines" true
    (contains contents "vchunk" && not (contains contents "\"ev\": \"chunk\""));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  configure_exn ~dir ~resume:true;
  let resumed = run_runner ~jobs:4 () in
  Alcotest.(check bool) "resume byte-identical" true
    (Stdlib.compare first resumed = 0);
  Alcotest.(check int) "nothing recomputed" 0 (Experiments.Checkpoint.appended ());
  Alcotest.(check int) "every chunk restored" written
    (Experiments.Checkpoint.restored ())

(* ------------------------------------------------------------------ *)
(* Runner's quota: the caller uses cells up to the n-th counted one    *)

(* Cell [i] is [[| i |]], counted when [i] is in [counted]; the second
   result lists every index [compute] ran on, ascending. *)
let run_quota ?jobs ?(count = 18) ?quota_of ~counted () =
  let lock = Mutex.create () and computed = ref [] in
  let chunks, _faults =
    Experiments.Runner.run ?jobs ~key:(lazy "test-quota;seed=0")
      ~codec:Experiments.Checkpoint.floats ~count
      ?quota:(Option.map (fun n -> (n, fun cell -> List.mem (int_of_float cell.(0)) counted)) quota_of)
      (fun i ->
        Mutex.protect lock (fun () -> computed := i :: !computed);
        [| float_of_int i |])
  in
  (chunks, List.sort compare !computed)

let chunk_indices = function
  | Some cells -> Array.to_list (Array.map (fun cell -> int_of_float cell.(0)) cells)
  | None -> []

let upto k = List.init (k + 1) Fun.id

let take k xs = List.filteri (fun i _ -> i < k) xs

(* The cells a quota's caller uses: those of the chunks it got, in
   index order, cut after the n-th counted one. *)
let quota_scan ~counted ~n chunks =
  let rec cut seen = function
    | [] -> []
    | i :: rest ->
        let seen = if List.mem i counted then seen + 1 else seen in
        if seen >= n then [ i ] else i :: cut seen rest
  in
  cut 0 (List.concat_map chunk_indices (Array.to_list chunks))

let test_runner_quota_stops_at_nth () =
  (* Chunks hold indices 0..3, 4..7, 8..11, 12..15 and 16..17. *)
  List.iter
    (fun (name, counted, n, nth) ->
      with_clean_supervision @@ fun () ->
      let label what = Printf.sprintf "%s: %s" name what in
      let chunks, computed = run_quota ~jobs:1 ~quota_of:n ~counted () in
      let used = match nth with Some k -> upto k | None -> upto 17 in
      Alcotest.(check (list int)) (label "jobs 1 computes up to the n-th, no further")
        used computed;
      Alcotest.(check (list int)) (label "jobs 1 chunks end there") used
        (List.concat_map chunk_indices (Array.to_list chunks));
      Alcotest.(check (list int)) (label "chunk lengths")
        (List.init (Array.length chunks) (fun c ->
             Stdlib.min (List.length used) ((c + 1) * 4) - (c * 4)))
        (Array.to_list (Array.map (fun c -> List.length (chunk_indices c)) chunks));
      List.iter
        (fun jobs ->
          let chunks, _ = run_quota ~jobs ~quota_of:n ~counted () in
          let got = List.concat_map chunk_indices (Array.to_list chunks) in
          Alcotest.(check (list int))
            (label (Printf.sprintf "jobs %d cells up to the n-th as at jobs 1" jobs))
            used (take (List.length used) got);
          Array.iteri
            (fun c chunk ->
              let cells = chunk_indices chunk in
              Alcotest.(check (list int))
                (label (Printf.sprintf "jobs %d chunk %d is a prefix of its span" jobs c))
                (List.init (List.length cells) (fun k -> (c * 4) + k))
                cells)
            chunks)
        [ 2; 4 ])
    [
      ("first in its chunk", [ 1; 4; 9 ], 2, Some 4);
      ("inside its chunk", [ 1; 4; 9 ], 3, Some 9);
      ("last in its chunk", [ 1; 4; 11 ], 3, Some 11);
      ("never reached", [ 1; 4 ], 3, None);
    ];
  Alcotest.check_raises "quota below 1" (Invalid_argument "Runner.run: quota below 1")
    (fun () -> ignore (run_quota ~quota_of:0 ~counted:[] ()))

let test_runner_quota_quarantine () =
  (* One attempt per chunk and crash@1 lose chunk 1 (indices 4..7) for
     good. The frontier stalls there, so later chunks run whole, and the
     quota's caller reads the same cells as from whole chunks: counted
     1, 9 and 10 outside the lost chunk, so the scan ends at 10. *)
  let counted = [ 1; 5; 9; 10; 13 ] and n = 3 in
  List.iter
    (fun jobs ->
      with_clean_supervision @@ fun () ->
      let label what = Printf.sprintf "jobs %d: %s" jobs what in
      Supervisor.arm { Supervisor.default_policy with Supervisor.max_attempts = 1 };
      Plan.set_ambient (Some (Plan.make [ Plan.Crash_on_chunk 1 ]));
      let quota, _ = run_quota ~jobs ~quota_of:n ~counted () in
      let whole, _ = run_quota ~jobs ~counted () in
      Alcotest.(check bool) (label "chunk 1 quarantined") true (quota.(1) = None);
      Alcotest.(check (list int)) (label "scan equals the scan of whole chunks")
        (quota_scan ~counted ~n whole) (quota_scan ~counted ~n quota);
      Alcotest.(check (list int)) (label "the scan")
        [ 0; 1; 2; 3; 8; 9; 10 ] (quota_scan ~counted ~n quota);
      Array.iteri
        (fun c chunk ->
          if c > 1 then
            Alcotest.(check int) (label (Printf.sprintf "chunk %d whole" c))
              (Stdlib.min 4 (18 - (c * 4)))
              (List.length (chunk_indices chunk)))
        quota)
    [ 1; 4 ]

(* Trial's quota, through its journal. [counting_trial builds] is
   [run_trial] with a router builder that counts its calls. *)
let counting_trial builds ?jobs ?(trials = 6) () =
  Experiments.Trial.run ?jobs (Prng.Stream.create 17L) ~trials
    (Experiments.Trial.spec ~graph:cube ~p:0.7 ~source:0 ~target:31
       (fun _rand ~source:_ ~target:_ ->
         Atomic.incr builds;
         Routing.Local_bfs.router))

let chunk_lines text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match Obs.Json.of_string line with
         | Ok json when Option.bind (Obs.Json.member "ev" json) Obs.Json.to_str = Some "chunk" ->
             Some json
         | Ok _ | Error _ -> None)

let line_field name to_value json = Option.get (Option.bind (Obs.Json.member name json) to_value)

let rec replace_all ~sub ~by s =
  if contains s sub then replace_all ~sub ~by (replace_first ~sub ~by s) else s

(* The journal of [counting_trial] with [trials + extra] at one job,
   under the key of a run with [trials]: cells depend on the attempt
   index only, so its chunks before its own boundary are the whole
   chunks of a [trials] run. *)
let whole_chunk_journal ~trials ~extra =
  let journal trials =
    with_dir @@ fun dir ->
    configure_exn ~dir ~resume:false;
    ignore (counting_trial (Atomic.make 0) ~jobs:1 ~trials ());
    Experiments.Checkpoint.deconfigure ();
    read_file (Experiments.Checkpoint.file ~dir)
  in
  let key text = line_field "key" Obs.Json.to_str (List.hd (chunk_lines text)) in
  let short = journal trials and long = journal (trials + extra) in
  replace_all ~sub:(key long) ~by:(key short) long

let write_journal ~dir text =
  Out_channel.with_open_bin (Experiments.Checkpoint.file ~dir) (fun oc ->
      Out_channel.output_string oc text)

let without_chunk c text =
  String.split_on_char '\n' text
  |> List.filter (fun line -> not (contains line (Printf.sprintf "\"chunk\": %d," c)))
  |> String.concat "\n"

let test_trial_quota_builds_once_per_acceptance () =
  (* At one job, with tracing and checkpoints off, the router is built
     for the used acceptances only; a whole-chunk journal, whose
     boundary chunk holds further acceptances, restores the same
     result and builds no router but the checkpoint key's probe. *)
  with_clean_supervision @@ fun () ->
  let builds = Atomic.make 0 in
  let fresh = counting_trial builds ~jobs:1 () in
  Alcotest.(check int) "one build per used acceptance" 6 (Atomic.get builds);
  let whole = whole_chunk_journal ~trials:6 ~extra:8 in
  let used = fresh.Experiments.Trial.connection.Stats.Proportion.trials in
  let accepted_in_span =
    chunk_lines whole
    |> List.filter (fun json -> line_field "chunk" Obs.Json.to_int json <= (used - 1) / 4)
    |> List.concat_map (fun json -> line_field "cells" Obs.Json.to_list json)
    |> List.filter (fun cell -> line_field "t" Obs.Json.to_str cell <> "r")
    |> List.length
  in
  Alcotest.(check bool) "the whole boundary chunk accepts past the 6th" true
    (accepted_in_span > 6);
  List.iter
    (fun jobs ->
      with_dir @@ fun dir ->
      configure_exn ~dir ~resume:false;
      Experiments.Checkpoint.deconfigure ();
      write_journal ~dir whole;
      configure_exn ~dir ~resume:true;
      Atomic.set builds 0;
      let restored = counting_trial builds ~jobs () in
      Alcotest.(check bool) (Printf.sprintf "jobs %d: whole chunks give the same result" jobs)
        true (Stdlib.compare fresh restored = 0);
      Alcotest.(check int) "nothing computed" 0 (Experiments.Checkpoint.appended ());
      Alcotest.(check int) "the key's probe router only" 1 (Atomic.get builds);
      Experiments.Checkpoint.deconfigure ())
    [ 1; 4 ]

let test_trial_short_boundary_resume () =
  (* A one-job run journals its boundary chunk cut after the 6th
     acceptance, its last append: what a run killed after that append
     leaves. It resumes at four jobs byte-identically, computing
     nothing. Without chunk 0's line the cut chunk comes after a gap:
     a clean resume recomputes only chunk 0, and a resume that loses
     chunk 0 (one attempt per chunk, crash@0) completes the cut chunk,
     as a fresh run that loses chunk 0 computes it whole. *)
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let first = run_trial ~jobs:1 () in
  let written = Experiments.Checkpoint.appended () in
  Experiments.Checkpoint.deconfigure ();
  let journal = read_file (Experiments.Checkpoint.file ~dir) in
  let last = List.nth (chunk_lines journal) (written - 1) in
  Alcotest.(check bool) "the boundary chunk is cut" true
    (List.length (line_field "cells" Obs.Json.to_list last) < 4);
  configure_exn ~dir ~resume:true;
  Alcotest.(check bool) "resumed at jobs 4" true
    (Stdlib.compare first (run_trial ~jobs:4 ()) = 0);
  Alcotest.(check int) "nothing recomputed" 0 (Experiments.Checkpoint.appended ());
  Alcotest.(check int) "every chunk restored" written (Experiments.Checkpoint.restored ());
  Experiments.Checkpoint.deconfigure ();
  write_journal ~dir (without_chunk 0 journal);
  configure_exn ~dir ~resume:true;
  Alcotest.(check bool) "after a gap" true (Stdlib.compare first (run_trial ~jobs:1 ()) = 0);
  Alcotest.(check int) "only chunk 0 recomputed" 1 (Experiments.Checkpoint.appended ());
  Experiments.Checkpoint.deconfigure ();
  let lose_chunk_0 () =
    Supervisor.arm { Supervisor.default_policy with Supervisor.max_attempts = 1 };
    Plan.set_ambient (Some (Plan.make [ Plan.Crash_on_chunk 0 ]))
  in
  lose_chunk_0 ();
  let lossy = run_trial ~jobs:1 () in
  List.iter
    (fun jobs ->
      write_journal ~dir (without_chunk 0 journal);
      configure_exn ~dir ~resume:true;
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: losing chunk 0 completes the cut chunk" jobs)
        true
        (Stdlib.compare lossy (run_trial ~jobs ()) = 0);
      Experiments.Checkpoint.deconfigure ())
    [ 1; 4 ]

let test_trial_quota_quarantine () =
  (* One attempt per chunk and crash@1: the trial equals the scan of a
     whole-chunk journal that lacks chunk 1, resumed under the same
     plan, at one job and at four. *)
  with_clean_supervision @@ fun () ->
  let whole = without_chunk 1 (whole_chunk_journal ~trials:6 ~extra:8) in
  Supervisor.arm { Supervisor.default_policy with Supervisor.max_attempts = 1 };
  Plan.set_ambient (Some (Plan.make [ Plan.Crash_on_chunk 1 ]));
  let lossy = counting_trial (Atomic.make 0) ~jobs:1 () in
  Alcotest.(check bool) "chunk 1 lost" true
    ((Supervisor.global_summary ()).Supervisor.quarantined = [ 1 ]);
  List.iter
    (fun jobs ->
      with_dir @@ fun dir ->
      configure_exn ~dir ~resume:false;
      Experiments.Checkpoint.deconfigure ();
      write_journal ~dir whole;
      configure_exn ~dir ~resume:true;
      Alcotest.(check bool) (Printf.sprintf "jobs %d: same as the whole-chunk scan" jobs) true
        (Stdlib.compare lossy (counting_trial (Atomic.make 0) ~jobs ()) = 0);
      Alcotest.(check int) "chunk 1 computed, not journaled" 0 (Experiments.Checkpoint.appended ());
      Experiments.Checkpoint.deconfigure ())
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Atomic_file                                                         *)

let test_atomic_file () =
  with_dir @@ fun dir ->
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  let path = Filename.concat nested "file.txt" in
  Obs.Atomic_file.write ~path ~contents:"one\n";
  Alcotest.(check string) "write creates parents" "one\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Obs.Atomic_file.write ~path ~contents:"two\n";
  Alcotest.(check string) "write replaces" "two\n"
    (In_channel.with_open_bin path In_channel.input_all);
  let log = Filename.concat nested "log.jsonl" in
  Obs.Atomic_file.append_line ~path:log ~line:"{\"a\":1}\n";
  Obs.Atomic_file.append_line ~path:log ~line:"{\"b\":2}\n";
  Alcotest.(check string) "append keeps history" "{\"a\":1}\n{\"b\":2}\n"
    (In_channel.with_open_bin log In_channel.input_all);
  Alcotest.(check bool) "no temp litter" true
    (Array.for_all
       (fun entry -> not (String.length entry > 4 && String.sub entry 0 4 = ".tmp"))
       (Sys.readdir nested))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faultsim"
    [
      ( "plan",
        [
          case "json round-trip" test_plan_json_round_trip;
          case "spec syntax" test_plan_spec;
          case "injector targets (chunk, attempt)" test_injector_targets;
          case "flaky bounded by max_failures" test_flaky_recoverable_bound;
        ] );
      ( "supervisor",
        [
          case "retry recovers byte-identically" test_retry_recovers;
          case "quarantine after budget" test_quarantine_after_budget;
          case "quarantines counted per run" test_quarantine_counted_per_run;
          case "deadline expiry" test_deadline_expiry;
          case "faults/v1 json" test_faults_json;
          case "exit codes" test_exit_codes;
        ] );
      ( "trial",
        [
          QCheck_alcotest.to_alcotest test_recoverable_plan_byte_identity_qcheck;
          case "plain path when unarmed" test_supervised_only_when_armed;
        ] );
      ( "checkpoint",
        [
          case "round-trip" test_checkpoint_round_trip;
          case "resume at more jobs computes nothing"
            test_checkpoint_resume_computes_nothing;
          case "key isolation" test_checkpoint_key_isolation;
          case "resume after torn line" test_resume_after_torn_line;
          case "resume after rejected cells" test_resume_after_rejected_cells;
          QCheck_alcotest.to_alcotest floats_round_trip_qcheck;
        ] );
      ( "runner",
        [
          case "jobs identical" test_runner_jobs_identical;
          case "crash plan identical" test_runner_crash_plan_identical;
          case "checkpoint resume" test_runner_checkpoint_resume;
          case "vchunk lines resume" test_runner_vchunk_resume;
          case "resume under a crash plan" test_runner_resume_under_crash_plan;
          case "grid drops quarantined trials" test_runner_grid_quarantine;
        ] );
      ( "quota",
        [
          case "stops at the n-th counted cell" test_runner_quota_stops_at_nth;
          case "quarantine reads as whole chunks" test_runner_quota_quarantine;
          case "trial builds routers for used acceptances"
            test_trial_quota_builds_once_per_acceptance;
          case "cut boundary chunk resumes" test_trial_short_boundary_resume;
          case "trial quarantine reads as whole chunks" test_trial_quota_quarantine;
        ] );
      ("atomic_file", [ case "write and append" test_atomic_file ]);
    ]
