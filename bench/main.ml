(* Percolation hot-path benchmark: cached vs lazy worlds.

   Three kernels per size-gated topology, each run over both world
   representations with the same seeds (identical coins, identical
   work — only the machinery differs):

   - reveal-BFS: full open-cluster exploration from a fixed source,
     fresh prefilled world per iteration (arena BFS over open rows cut
     from coin bitsets vs Hashtbl frontier + rehash-per-query);
   - oracle-probe: an unrestricted probe sweep over every edge followed
     by a full re-probe pass (bitset probe memory vs Hashtbl);
   - trial-run: a whole [Trial.run] under the default (cached)
     representation — the end-to-end number the catalog feels.

   A fourth row times the churn stepper. Results land in
   BENCH_percolation.json (schema bench_percolation/v3) and, with
   --history, are appended to a JSONL trail. End-to-end timings of the
   catalog, serve and simulate live in perfbench/; this harness keeps
   the kernel rows perfbench lacks, plus the --obs-guard check. *)

let seed = 0xBE7CAL

(* All fixed topologies go through the registry, like the CLI and the
   examples. *)
let topo name ~size =
  match Topology.Registry.of_spec name with
  | Ok spec ->
      (Topology.Registry.build spec ~default_size:size (Prng.Stream.create seed))
        .Topology.Registry.graph
  | Error message -> failwith message

let perc_bench_seed = 0xB37CA5EL

let time_median ~reps f =
  ignore (Sys.opaque_identity (f ()));
  (* warmup *)
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare samples;
  samples.(Array.length samples / 2)

type perc_case = {
  case_name : string;
  graph : Topology.Graph.t;
  p : float;
  source : int;
  target : int;
  edges : int array Lazy.t;
      (* Flat [u0; v0; u1; v1; ...] — boxed (int * int) tuples would put
         a pointer chase in front of every probe and drown the store
         costs the kernel is meant to compare. *)
}

let edges_of graph =
  lazy
    (let out = ref [] in
     Topology.Graph.iter_edges graph (fun u v -> out := v :: u :: !out);
     Array.of_list (List.rev !out))

let perc_cases () =
  let case name graph p source target =
    { case_name = name; graph; p; source; target; edges = edges_of graph }
  in
  (* Sizes are picked so the per-world state (coin tables, probe memos,
     distance maps) is well past L2 on the lazy/Hashtbl reference path
     while staying far under {!Percolation.World.cache_gate}: the cached
     representation's point is its memory behaviour, which toy instances
     whose Hashtbls fit in cache understate. *)
  let hyper_n = 16 in
  let mesh_m = 150 in
  let gnp_n = 500 in
  let db_n = 17 in
  let hyper = topo "hypercube" ~size:hyper_n in
  let mesh = topo "mesh2" ~size:mesh_m in
  let gnp = topo "complete" ~size:gnp_n in
  let db = topo "de-bruijn" ~size:db_n in
  [
    (* Supercritical but sparse (mean open degree 2 of 16): prefilled
       rows hold only open neighbors, while the lazy reference hashes
       a coin for every one of the 16 incident edges per expansion — the
       open-row compression that dense-graph/low-p regimes buy. *)
    case
      (Printf.sprintf "hypercube(n=%d)" hyper_n)
      hyper
      (2.0 /. float_of_int hyper_n)
      0
      (Topology.Hypercube.antipode ~n:hyper_n 0);
    case
      (Printf.sprintf "mesh2(m=%d)" mesh_m)
      mesh 0.7
      (Topology.Mesh.index ~m:mesh_m [| 10; 20 |])
      (Topology.Mesh.index ~m:mesh_m [| 130; 20 |]);
    case
      (Printf.sprintf "complete(n=%d)" gnp_n)
      gnp
      (3.0 /. float_of_int gnp_n)
      0 (gnp_n - 1);
    (* The low-fault routing regime (10% edge failures): almost every
       probe lands on an open edge, so both sides pay their
       reached-set/extension bookkeeping on nearly every memo hit —
       Hashtbl lookups on the lazy path against flat array reads on the
       cached one. *)
    case
      (Printf.sprintf "de-bruijn(n=%d)" db_n)
      db 0.9 1
      (db.Topology.Graph.vertex_count - 2);
  ]

let world_of case ~cache k =
  Percolation.World.create ~cache case.graph ~p:case.p
    ~seed:(Prng.Coin.derive perc_bench_seed k)

let reveal_kernel case ~worlds ~cache () =
  (* Four BFS passes per world — the Trial.run pattern (conditioning
     reveal, chemical distance, routing ground truth) revisits the same
     world's coins repeatedly, which is what the cache amortises. The
     representation picks the engine: Table over lazy worlds (the
     reference), Arena over cached ones (production). *)
  let acc = ref 0 in
  for k = 1 to worlds do
    let world = world_of case ~cache k in
    (* Resident worlds are prefilled in production (serve's world table),
       so the cached engine is measured the same way: one CSR sweep that
       cuts exact-size open rows — timed here — then four BFS passes that
       read them. A one-shot trial world is never prefilled; its reveal
       tests CSR coin bits, which [trial_kernel] measures. *)
    if cache then Percolation.World.prefill world;
    for _pass = 1 to 4 do
      let size, _ = Percolation.Reveal.cluster_size world case.source in
      acc := !acc + size
    done
  done;
  !acc

let oracle_kernel case ~worlds ~cache () =
  let acc = ref 0 in
  for k = 1 to worlds do
    let world = world_of case ~cache k in
    (* Unrestricted sweep over a pre-collected edge array: every edge
       probed once, then re-probed three more times (the memo path
       routers lean on). The array keeps edge enumeration out of the
       measurement. *)
    let oracle =
      Percolation.Oracle.create ~policy:Percolation.Oracle.Unrestricted world
        ~source:case.source
    in
    let edges = Lazy.force case.edges in
    let pairs = Array.length edges / 2 in
    for _pass = 1 to 4 do
      for i = 0 to pairs - 1 do
        ignore
          (Percolation.Oracle.probe oracle edges.(2 * i) edges.((2 * i) + 1))
      done
    done;
    acc := !acc + Percolation.Oracle.distinct_probes oracle
    (* The realistic reveal-then-route mix lives in [trial_kernel]; this
       kernel stays a pure probe sweep so the store representations are
       compared without identical router overhead diluting the ratio. *)
  done;
  !acc

let trial_kernel case ~trials () =
  let stream = Prng.Stream.create perc_bench_seed in
  let result =
    Experiments.Trial.run stream ~trials
      (Experiments.Trial.spec ~graph:case.graph ~p:case.p ~source:case.source
         ~target:case.target (fun _rand ~source:_ ~target:_ ->
           Routing.Local_bfs.router))
  in
  Stats.Censored.count result.Experiments.Trial.observations

type perc_timing = { lazy_ns : float; cached_ns : float }

let perc_speedup t = t.lazy_ns /. t.cached_ns

let compare_paths ~reps kernel =
  let lazy_s = time_median ~reps (fun () -> kernel ~cache:false ()) in
  let cached_s = time_median ~reps (fun () -> kernel ~cache:true ()) in
  { lazy_ns = lazy_s *. 1e9; cached_ns = cached_s *. 1e9 }

(* Provenance for bench snapshots: where and when the numbers came
   from. Best-effort — a missing git (tarball build) yields null. *)
let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> (match line with Some "" -> None | l -> l)
      | _ -> None)
  | exception Unix.Unix_error _ -> None

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* The churn stepper: every (edge, round) liveness query on a mesh
   under the E26-style renewal plan, fresh trajectories per iteration.
   This is the per-round cost a churned netsim run adds on top of the
   engine, so it gets its own history-tracked row. *)
let churn_step_kernel ~rounds graph =
  let plan = Netsim.Churn.make ~fail:0.05 ~repair:0.3 ~seed:perc_bench_seed () in
  let edge_count = Topology.Graph.edge_count graph in
  fun () ->
    let state = Netsim.Churn.instantiate plan ~world_seed:1L in
    let up = ref 0 in
    for round = 1 to rounds do
      for edge = 0 to edge_count - 1 do
        if Netsim.Churn.link_up state ~edge ~round then incr up
      done
    done;
    !up

let perc_json ~mode ~worlds ~churn_step results =
  let buffer = Buffer.create 2048 in
  let timing_fields t =
    Printf.sprintf "{\"lazy_ns\": %.0f, \"cached_ns\": %.0f, \"speedup\": %.2f}"
      t.lazy_ns t.cached_ns (perc_speedup t)
  in
  Buffer.add_string buffer "{\n";
  Buffer.add_string buffer "  \"schema\": \"bench_percolation/v3\",\n";
  Buffer.add_string buffer
    (Printf.sprintf "  \"commit\": %s,\n"
       (match git_commit () with
       | Some c -> Printf.sprintf "%S" c
       | None -> "null"));
  Buffer.add_string buffer
    (Printf.sprintf "  \"timestamp\": %S,\n" (iso8601_utc ()));
  Buffer.add_string buffer (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string buffer (Printf.sprintf "  \"worlds_per_kernel\": %d,\n" worlds);
  Buffer.add_string buffer "  \"topologies\": [\n";
  List.iter
    (fun (case, cached, reveal, oracle, trial_ns, trials) ->
      Buffer.add_string buffer
        (Printf.sprintf
           "    {\"name\": %S, \"cached\": %b,\n\
           \     \"reveal_bfs\": %s,\n\
           \     \"oracle_probe\": %s,\n\
           \     \"trial_run\": {\"ns\": %.0f, \"trials\": %d}},\n"
           case.case_name cached (timing_fields reveal) (timing_fields oracle)
           trial_ns trials))
    results;
  (let churn_ns, churn_queries = churn_step in
   Buffer.add_string buffer
     (Printf.sprintf
        "    {\"name\": \"churn-stepper\", \"churn_step\": {\"ns\": %.0f, \
         \"queries\": %d}}\n"
        churn_ns churn_queries));
  Buffer.add_string buffer "  ]\n}\n";
  Buffer.contents buffer

let report_percolation ~quick ~out =
  let worlds = if quick then 10 else 50 in
  let reps = if quick then 5 else 11 in
  let trials = if quick then 5 else 20 in
  Printf.printf "== percolation hot path (cached vs lazy worlds, %s mode) ==\n"
    (if quick then "quick" else "full");
  let results =
    List.map
      (fun case ->
        let cached =
          Percolation.World.cached
            (Percolation.World.create case.graph ~p:case.p ~seed:1L)
        in
        let reveal = compare_paths ~reps (fun ~cache -> reveal_kernel case ~worlds ~cache) in
        let oracle = compare_paths ~reps (fun ~cache -> oracle_kernel case ~worlds ~cache) in
        let trial_ns = time_median ~reps:3 (trial_kernel case ~trials) *. 1e9 in
        Printf.printf
          "%-18s reveal-BFS %6.2fx   oracle-probe %6.2fx   trial %6.2f ms\n%!"
          case.case_name (perc_speedup reveal) (perc_speedup oracle)
          (trial_ns /. 1e6);
        (case, cached, reveal, oracle, trial_ns, trials))
      (perc_cases ())
  in
  let churn_rounds = if quick then 50 else 200 in
  let churn_graph = topo "mesh2" ~size:60 in
  (* A quick pass takes about 6 ms, so a median of 5 passes moves with
     any host event longer than about 15 ms. The row takes 41 passes in
     both modes: over 36 runs of a dev build on a 2-vCPU host, 34 read
     within 15.6-17.9 ns/query, against 32 within 15.1-19.2 ns at 5. *)
  let churn_ns =
    time_median ~reps:41 (churn_step_kernel ~rounds:churn_rounds churn_graph) *. 1e9
  in
  let churn_queries = churn_rounds * Topology.Graph.edge_count churn_graph in
  Printf.printf "%-18s churn-step %6.1f ns/query (%d queries)\n%!" "churn-stepper"
    (churn_ns /. float_of_int churn_queries)
    churn_queries;
  if not (Float.is_finite churn_ns && churn_ns > 0.0) then
    failwith "bench: bad timing for churn-stepper";
  let json =
    perc_json
      ~mode:(if quick then "quick" else "full")
      ~worlds
      ~churn_step:(churn_ns, churn_queries)
      results
  in
  (* Self-validate before writing: every timing positive and finite. *)
  List.iter
    (fun (case, _, reveal, oracle, trial_ns, _) ->
      let ok t =
        Float.is_finite t.lazy_ns && Float.is_finite t.cached_ns && t.lazy_ns > 0.0
        && t.cached_ns > 0.0
      in
      if not (ok reveal && ok oracle && Float.is_finite trial_ns && trial_ns > 0.0)
      then failwith (Printf.sprintf "bench: bad timing for %s" case.case_name))
    results;
  let channel = open_out out in
  output_string channel json;
  close_out channel;
  Printf.printf "wrote %s\n" out

(* Append the snapshot at [out] to a JSONL history file. The history is
   a record, not a gate: host speed moves every timing, so comparing
   two snapshots is left to [faultroute obs diff]. The snapshot must
   parse as one, or every later reader of the history would stop at
   it. *)
let append_history ~out ~history =
  let contents = In_channel.with_open_text out In_channel.input_all in
  match Obs.Json.of_string contents with
  | Error message -> Printf.eprintf "bench history: %s is unusable: %s\n" out message
  | Ok json -> (
      match Obs.Bench_history.of_json json with
      | Error message ->
          Printf.eprintf "bench history: %s is unusable: %s\n" out message
      | Ok _ ->
          (* Atomic append (temp + rename): a kill mid-append must
             corrupt neither the existing history nor the new line. *)
          Obs.Atomic_file.append_line ~path:history
            ~line:(Obs.Json.to_string json ^ "\n");
          Printf.printf "appended snapshot to %s\n" history)

(* A fixed single-threaded kernel that uses none of the library's code:
   a pointer chase through a cache-sized random cycle, then hash-table
   and list churn — the mix of perfbench's host-speed reference, scaled
   down to the guard kernel's few milliseconds. Host load slows both
   kernels of an adjacent pair alike, so their ratio holds still where
   raw times drift. *)
let reference_cycle =
  lazy
    (let size = 1 lsl 15 in
     let a = Array.init size Fun.id in
     (* Sattolo's shuffle from a fixed xorshift: one cycle through all
        slots. *)
     let s = ref 0x2545F4914F6CDD1 in
     for i = size - 1 downto 1 do
       s := !s lxor (!s lsl 13) land max_int;
       s := !s lxor (!s lsr 7);
       s := !s lxor (!s lsl 17) land max_int;
       let j = !s mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let reference_kernel () =
  let a = Lazy.force reference_cycle in
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to 600_000 do
    p := Array.unsafe_get a !p;
    acc := !acc + !p
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 12_000 do
    Hashtbl.replace h (i land 4095) (List.init 8 (fun k -> k + i));
    match Hashtbl.find_opt h ((i * 7) land 4095) with
    | Some l -> acc := !acc + List.length l
    | None -> ()
  done;
  !acc

(* The zero-cost-when-off contract, checked twice over.

   Deterministically: three instrumented runs (tracing into a null
   sink, metrics, timing spans and telemetry all armed) exercise every
   hook of the oracle-probe kernel and must each record probes; after
   each is disarmed every switch must read off, and after the three one
   kernel run must allocate exactly the minor words it allocated
   before them — a hook left installed or a flag left set shows up
   here whatever the host's load.

   Empirically: the kernel is timed with instrumentation disabled in
   three phases before the instrumented runs and three after, each
   phase 25 adjacent pairs of a reference-kernel sample and a kernel
   sample, in processor time. The phases pair up outward from the
   instrumented runs (the last before with the first after, and so
   on), so every pair brackets all three, and a pair's shift is the
   difference of its two median kernel/reference ratios, priced in
   kernel time at the mean of its two median reference times. The
   median of the three shifts must stay under a floor of
   [floor_fraction] of the kernel's own median time: a persistent
   slowdown the switches do not show. One phase slowed by host load
   moves one pair, not the verdict. *)
let floor_fraction = 0.08

let obs_guard () =
  (* A small fixed case, not the first (big) percolation case: the
     guard compares timings of identical code, so what it needs is a
     kernel stable across the ~300 samples — the cache-footprint cases
     drift with thermal/frequency state over that window, and a
     constant instrumentation leak shows up as a larger fraction of a
     small kernel anyway. *)
  let hyper_n = 10 in
  let graph = topo "hypercube" ~size:hyper_n in
  let case =
    {
      case_name = Printf.sprintf "hypercube(n=%d)" hyper_n;
      graph;
      p = float_of_int hyper_n ** -0.3;
      source = 0;
      target = Topology.Hypercube.antipode ~n:hyper_n 0;
      edges = edges_of graph;
    }
  in
  let worlds = 10 in
  let kernel () = oracle_kernel case ~worlds ~cache:true () in
  (* Processor time, not wall time: a sample the scheduler preempts
     under load keeps its cost instead of gaining the wait. *)
  let time f =
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    Sys.time () -. t0
  in
  let median xs =
    let xs = Array.copy xs in
    Array.sort compare xs;
    xs.(Array.length xs / 2)
  in
  (* One phase: medians of the kernel/reference ratio, of the
     reference time and of the kernel time. *)
  let paired () =
    ignore (Sys.opaque_identity (reference_kernel ()));
    ignore (Sys.opaque_identity (kernel ()));
    let pairs =
      Array.init 25 (fun _ ->
          let reference = time reference_kernel in
          let own = time kernel in
          (own /. reference, reference, own))
    in
    ( median (Array.map (fun (r, _, _) -> r) pairs),
      median (Array.map (fun (_, r, _) -> r) pairs),
      median (Array.map (fun (_, _, k) -> k) pairs) )
  in
  let minor_words () =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (kernel ()));
    Gc.minor_words () -. before
  in
  let instrumented index =
    Obs.Trace.enable ~sink:(fun _ -> ());
    Obs.Metrics.enable ();
    Obs.Timing.enable ();
    Obs.Telemetry.enable ();
    let run = Obs.Trace.observe ~index kernel in
    Obs.Trace.disable ();
    Obs.Metrics.disable ();
    Obs.Timing.disable ();
    Obs.Telemetry.disable ();
    assert (
      not (Obs.Trace.on () || Obs.Metrics.on () || Obs.Timing.on () || Obs.Telemetry.on ()));
    Obs.Metrics.counter run.Obs.Trace.metrics "oracle.probe.fresh"
  in
  let phases = 3 in
  Printf.printf "== obs guard (oracle-probe kernel, %s) ==\n" case.case_name;
  let before = Array.init phases (fun _ -> paired ()) in
  let words_before = minor_words () in
  let probes = Array.init phases (fun i -> instrumented (i + 1)) in
  let words_after = minor_words () in
  if Array.mem 0 probes then begin
    print_endline "obs-guard: FAIL — an instrumented run recorded no probes";
    1
  end
  else if words_after <> words_before then begin
    Printf.printf
      "obs-guard: FAIL — the disabled kernel allocated %.0f minor words before \
       the instrumented runs and %.0f after\n"
      words_before words_after;
    1
  end
  else begin
    let after = Array.init phases (fun _ -> paired ()) in
    let pair k =
      let ratio_before, reference_before, _ = before.(phases - 1 - k) in
      let ratio_after, reference_after, _ = after.(k) in
      abs_float (ratio_after -. ratio_before) *. (reference_before +. reference_after) /. 2.0
    in
    let shifts = Array.init phases pair in
    let shift = median shifts in
    let own = median (Array.map (fun (_, _, k) -> k) (Array.append before after)) in
    let floor = floor_fraction *. own in
    let ratios phases =
      String.concat "/" (Array.to_list (Array.map (fun (r, _, _) -> Printf.sprintf "%.3f" r) phases))
    in
    Printf.printf
      "minor words per run: %.0f before and after\n\
       kernel/reference before: %s   after: %s\n\
       shifts: %s ms; median %.3f ms (%.1f%%) against a floor of %.3f ms (%.0f%% of \
       the kernel's median %.3f ms)\n"
      words_before (ratios before) (ratios after)
      (String.concat "/" (Array.to_list (Array.map (fun x -> Printf.sprintf "%.3f" (x *. 1e3)) shifts)))
      (shift *. 1e3) (shift /. own *. 100.0) (floor *. 1e3) (floor_fraction *. 100.0)
      (own *. 1e3);
    if shift < floor then begin
      print_endline "obs-guard: OK — instrumentation leaves the disabled path alone";
      0
    end
    else begin
      print_endline
        "obs-guard: FAIL — disabled-path cost shifted past the floor after the \
         instrumented runs";
      1
    end
  end

(* A real single-pass parser (no cmdliner in the bench image): every
   flag is matched exactly, value flags consume the next word, and an
   unknown argument is a usage error, so a typo cannot silently run the
   default. *)
type bench_args = {
  mutable quick : bool;
  mutable obs_guard : bool;
  mutable out : string;
  mutable history : string option;
}

let usage_lines =
  [
    "usage: bench [--full|--quick] [--obs-guard] [--out FILE] [--history FILE]";
    "";
    "  --full              more worlds, repetitions and trials per kernel";
    "  --quick             the smaller counts (the default)";
    "  --obs-guard         only check that instrumentation costs nothing when off";
    "  --out FILE          percolation snapshot path (default BENCH_percolation.json)";
    "  --history FILE      also append the snapshot to a JSONL history";
  ]

let parse_args () =
  let a =
    { quick = true; obs_guard = false; out = "BENCH_percolation.json"; history = None }
  in
  let argc = Array.length Sys.argv in
  let die message =
    Printf.eprintf "bench: %s\n" message;
    List.iter prerr_endline usage_lines;
    exit 2
  in
  let rec loop i =
    if i < argc then
      let value name =
        if i + 1 >= argc then die (Printf.sprintf "%s needs a value" name)
        else Sys.argv.(i + 1)
      in
      match Sys.argv.(i) with
      | "--full" ->
          a.quick <- false;
          loop (i + 1)
      | "--quick" ->
          a.quick <- true;
          loop (i + 1)
      | "--obs-guard" ->
          a.obs_guard <- true;
          loop (i + 1)
      | "--out" ->
          a.out <- value "--out";
          loop (i + 2)
      | "--history" ->
          a.history <- Some (value "--history");
          loop (i + 2)
      | "--help" | "-h" ->
          List.iter print_endline usage_lines;
          exit 0
      | arg -> die (Printf.sprintf "unknown argument %S" arg)
  in
  loop 1;
  a

let () =
  let args = parse_args () in
  if args.obs_guard then exit (obs_guard ());
  report_percolation ~quick:args.quick ~out:args.out;
  Option.iter (fun history -> append_history ~out:args.out ~history) args.history
