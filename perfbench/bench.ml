(* The repository benchmark: one workload per invocation.

     bench.exe --workload NAME --seconds S [--seed N] [--trace 0|1]

   J is the machine's recommended domain count. --trace 0 runs passes
   at jobs 1 until the time budget is spent, with every tracing switch
   of the library off, then one untimed pass at jobs J for the check;
   it takes set-up samples before the first pass and between passes
   (setup_s is their median) and times a reference kernel before each
   set-up sample and pass (see "Host speed reference").
   --trace 1 sets up once, runs one untraced pass at each job count,
   then one pass at jobs J with Obs.Timing, Obs.Metrics and
   Obs.Telemetry on, and reports the per-layer metrics.

   Output: a provenance line, then the result line
   {"correct": .., "attempted": .., "failed": .., "metrics": {name: value}}
   which run.py completes with the units declared in BENCHMARK.json.
   Workloads and metrics are described in README.md. *)

module J = Obs.Json

let now = Unix.gettimeofday

(* The CLI's default seed, at which the committed verdict baselines
   hold every claim. *)
let default_seed = 24301L

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let ratio a b = if b > 0. then a /. b else 0.

(* ------------------------------------------------------------------ *)
(* Host speed reference                                                *)

(* The host this benchmark was tuned on changes speed by 20-35% from one
   minute to the next, for every workload at once: a set of runs that
   straddles a shift spreads past any useful bound. So a timed run also
   times a fixed single-threaded kernel that uses none of the
   repository's code (a pointer chase through a cache-sized random
   cycle, then list and hash-table churn, the mix of the workloads'
   inner loops) once before every pass and every set-up sample. Each
   end-to-end time is reported at reference speed: multiplied by
   [reference_nominal_s] over the run's median kernel time, rates
   divided by it. A change to the program moves the pass times and not
   the kernel, so it moves the reported numbers in full; the raw
   medians are in the provenance line. *)

(* The kernel's median on the 2-vCPU machine the baseline was taken on,
   in a quiet period. *)
let reference_nominal_s = 0.04

let reference_cycle =
  lazy
    (let size = 1 lsl 15 in
     let a = Array.init size Fun.id in
     (* Sattolo's shuffle, from a fixed xorshift: one cycle through all
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
  for _ = 1 to 3_000_000 do
    p := Array.unsafe_get a !p;
    acc := !acc + !p
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 60_000 do
    Hashtbl.replace h (i land 4095) (List.init 8 (fun k -> k + i));
    match Hashtbl.find_opt h ((i * 7) land 4095) with
    | Some l -> acc := !acc + List.length l
    | None -> ()
  done;
  !acc

(* Seconds of one kernel run. *)
let time_reference () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_kernel ()));
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Passes and workloads                                                *)

type pass = {
  wall : float;  (** Seconds. *)
  latencies : float array;  (** Seconds, one per query. *)
  digest : string;  (** Hash of everything the pass output. *)
  failed : int;  (** Queries whose own check failed. *)
  claims_not_holding : int;
  layers : (string * float) list;
      (** Per-layer numbers the pass observed from outside the library. *)
}

type instance = {
  pass : jobs:int -> pass;
  extra_layers : jobs:int -> untraced:pass -> (string * float) list;
      (** Per-layer numbers that need work beyond the passes; taken in
          the traced run, after the traced pass. *)
}

type workload = {
  name : string;
  prepare : seed:int64 -> unit -> instance;
      (** [prepare ~seed] makes the inputs (untimed); the returned thunk
          is the timed set-up. *)
  burn_in : bool;
      (** Whether a timed run starts with an untimed pass; the catalog
          set-up already ends with a warm pass. *)
}

let pass_of ?(failed = 0) ?(claims_not_holding = 0) ?(layers = []) ~wall
    ~latencies digest =
  { wall; latencies; digest; failed; claims_not_holding; layers }

let digest_string s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Catalog workloads                                                   *)

(* Rendered reports plus every claim/v1 object, holds bit included. *)
let reports_digest reports =
  let b = Buffer.create 65536 in
  List.iter
    (fun r ->
      Buffer.add_string b (Experiments.Report.render r);
      List.iter
        (fun c ->
          Buffer.add_string b (J.to_string (Experiments.Claim.to_json c));
          Buffer.add_char b '\n')
        r.Experiments.Report.claims)
    reports;
  digest_string (Buffer.contents b)

let count_not_holding reports =
  List.fold_left
    (fun n r ->
      n
      + List.length
          (List.filter
             (fun c -> not (Experiments.Claim.holds c))
             r.Experiments.Report.claims))
    0 reports

(* One catalog pass is one query. Claims are statistical statements
   about a seed's sample: at the default seed, where the committed
   baselines hold them all, a claim that fails fails the pass; at other
   seeds it is only counted. *)
let catalog_pass ~seed ~wall ?layers reports =
  let bad = count_not_holding reports in
  pass_of ~wall ~latencies:[| wall |] ?layers
    ~failed:(if bad > 0 && seed = default_seed then 1 else 0)
    ~claims_not_holding:bad (reports_digest reports)

let wall_layer id = Printf.sprintf "experiments.%s.wall_s" id

let catalog_quick ~seed () =
  let run_all ~jobs =
    Engine_par.Pool.set_default_jobs jobs;
    Experiments.Catalog.run_all ~quick:true ~jobs ~seed ()
  in
  (* Set-up is the untimed warm-up: one pass at jobs 1, the job count of
     the timed passes. *)
  ignore (run_all ~jobs:1);
  let pass ~jobs =
    let t0 = now () in
    let reports = run_all ~jobs in
    catalog_pass ~seed ~wall:(now () -. t0) reports
  in
  (* Each experiment's run alone, in catalog order, on the stream
     run_all gives it. *)
  let extra_layers ~jobs ~untraced:_ =
    Engine_par.Pool.set_default_jobs jobs;
    let stream = Prng.Stream.create seed in
    List.mapi
      (fun i (e : Experiments.Catalog.experiment) ->
        let t0 = now () in
        ignore (e.run ~quick:true (Prng.Stream.split stream i));
        (wall_layer e.id, now () -. t0))
      Experiments.Catalog.all
  in
  { pass; extra_layers }

(* ------------------------------------------------------------------ *)
(* serve-replay                                                        *)

let manifest_path = "examples/serve/session.json"
let mix_path = "examples/serve/queries-10k.jsonl"
let stream_length = 10_000

let fail fmt = Printf.ksprintf failwith fmt

let ok_or_fail what = function
  | Ok v -> v
  | Error message -> fail "%s: %s" what message

let load_session () =
  ok_or_fail manifest_path
    (Serve.Session.load ~default_seed manifest_path)

(* The query stream: the committed replay file's mix, drawn from
   [seed]. Line i is a stats query where the file's line i is one (so
   batch boundaries stay put); any other line copies op, world, router,
   budget and limit from a uniformly drawn non-stats line of the file,
   with fresh uniform vertices. *)
let query_stream ~seed ~vertex_count =
  let templates =
    In_channel.with_open_bin mix_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l -> ok_or_fail mix_path (Serve.Query.parse l))
    |> Array.of_list
  in
  let is_stats (q : Serve.Query.t) = q.op = Serve.Query.Stats in
  let others = Array.of_list (List.filter (fun q -> not (is_stats q)) (Array.to_list templates)) in
  let rng = Prng.Stream.create seed in
  Array.init stream_length (fun i ->
      let q =
        let line = templates.(i mod Array.length templates) in
        if is_stats line then line else Prng.Stream.pick rng others
      in
      let world = Option.value q.Serve.Query.world ~default:"" in
      let vertex () = J.Int (Prng.Stream.int_in rng (vertex_count world)) in
      let cap name = function Some v -> [ (name, J.Int v) ] | None -> [] in
      let located op fields = [ ("op", J.String op); ("world", J.String world) ] @ fields in
      let fields =
        match q.Serve.Query.op with
        | Serve.Query.Route { router; budget; _ } ->
            let source = vertex () in
            let target = vertex () in
            located "route"
              ([ ("source", source); ("target", target); ("router", J.String router) ]
              @ cap "budget" budget)
        | Serve.Query.Reveal { limit; _ } ->
            let source = vertex () in
            let target = vertex () in
            located "reveal" ([ ("source", source); ("target", target) ] @ cap "limit" limit)
        | Serve.Query.Cluster { limit; _ } ->
            let v = vertex () in
            located "cluster" ([ ("vertex", v) ] @ cap "limit" limit)
        | Serve.Query.Stats -> [ ("op", J.String "stats") ]
      in
      J.to_string (J.Obj (("id", J.Int (i + 1)) :: fields)))

(* The manifest's graphs, built the way the service builds them. *)
let build_graph (w : Serve.Session.world_spec) =
  let spec = ok_or_fail w.topology (Topology.Registry.of_spec w.topology) in
  let size = Option.value spec.Topology.Registry.size ~default:0 in
  (Topology.Registry.build spec ~default_size:size
     (Prng.Stream.split (Prng.Stream.create w.seed) 0))
    .Topology.Registry.graph

let answer_field name line =
  match J.of_string line with
  | Ok json -> J.member name json
  | Error _ -> None

let serve_replay ~seed =
  let worlds = (load_session ()).Serve.Session.worlds in
  let t0 = now () in
  let graphs = List.map (fun (w : Serve.Session.world_spec) -> (w, build_graph w)) worlds in
  let topology_build_s = now () -. t0 in
  let vertex_count wid =
    match List.find_opt (fun ((w : Serve.Session.world_spec), _) -> w.wid = wid) graphs with
    | Some (_, g) -> g.Topology.Graph.vertex_count
    | None -> fail "query stream names unknown world %S" wid
  in
  let lines = query_stream ~seed ~vertex_count in
  fun () ->
    let service = ok_or_fail manifest_path (Serve.Service.start (load_session ())) in
    let pass ~jobs =
      let n = Array.length lines in
      let read_at = Array.make n 0. and write_at = Array.make n 0. in
      let answers = Array.make n "" in
      let next = ref 0 and written = ref 0 in
      (* Answers written with no read in between form one batch's
         sequential tally/encode/write burst. *)
      let write_s = ref 0. and last_write = ref 0. and reads_then = ref (-1) in
      let read () =
        if !next >= n then None
        else begin
          let i = !next in
          read_at.(i) <- now ();
          next := i + 1;
          Some lines.(i)
        end
      in
      let write line =
        let t = now () in
        let i = !written in
        if i < n then begin
          write_at.(i) <- t;
          answers.(i) <- line
        end;
        if !reads_then = !next then write_s := !write_s +. (t -. !last_write);
        last_write := t;
        reads_then := !next;
        written := i + 1
      in
      let t0 = now () in
      let outcome = Serve.Service.serve ~jobs service ~read ~write in
      let wall = now () -. t0 in
      (* Checks and counts, outside the timed window. *)
      let evidence = outcome.Serve.Service.evidence in
      let not_ok = ref 0 and routes = ref 0 and route_probes = ref 0 in
      Array.iter
        (fun line ->
          if answer_field "ok" line <> Some (J.Bool true) then incr not_ok;
          if answer_field "op" line = Some (J.String "route") then begin
            incr routes;
            match answer_field "probes" line with
            | Some (J.Int p) -> route_probes := !route_probes + p
            | _ -> incr not_ok
          end)
        answers;
      let evidence_holds =
        Result.is_ok (Serve.Evidence.validate evidence)
        && List.for_all Experiments.Claim.holds (Serve.Evidence.claims evidence)
        && not outcome.Serve.Service.overflowed
      in
      let outcome_count k =
        float_of_int (Option.value (List.assoc_opt k evidence.Serve.Evidence.outcomes) ~default:0)
      in
      let found = outcome_count "found" in
      let b = Buffer.create (n * 96) in
      Array.iter (Buffer.add_string b) answers;
      Buffer.add_string b (Serve.Evidence.to_string evidence);
      pass_of ~wall
        ~latencies:(Array.init n (fun i -> write_at.(i) -. read_at.(i)))
        ~failed:(if !written <> n || not evidence_holds then n else !not_ok)
        ~layers:
          [
            ("serve.write_s", !write_s);
            ( "serve.probes_per_route",
              ratio (float_of_int !route_probes) (float_of_int !routes) );
            ( "routing.found_ratio",
              ratio found (found +. outcome_count "no_path" +. outcome_count "budget_exceeded") );
          ]
        (digest_string (Buffer.contents b))
    in
    let extra_layers ~jobs:_ ~untraced:_ =
      let t0 = now () in
      Array.iter (fun l -> ignore (Serve.Query.parse l)) lines;
      let parse_s = now () -. t0 in
      let t0 = now () in
      List.iter
        (fun ((w : Serve.Session.world_spec), graph) ->
          Percolation.World.prefill
            (Percolation.World.create ?site_p:w.site_p graph ~p:w.p ~seed:w.seed))
        graphs;
      [
        ("serve.parse_s", parse_s);
        ("topology.build_s", topology_build_s);
        ("percolation.world_build_s", now () -. t0);
      ]
    in
    { pass; extra_layers }

(* ------------------------------------------------------------------ *)
(* churn-sim                                                           *)

let churn_topology = "mesh2:200"
let churn_p = 0.7
let churn_plan = Netsim.Churn.make ~seed:7L ~fail:0.05 ~repair:0.3 ()

(* [Engine.run] until the target is informed. [run] calls [until]
   before and after each [run_round], so the stamps pair up as
   (before round k, after round k); a trailing unpaired stamp is the
   check that ended the run. Returns the outcome and each round's
   seconds. *)
let flood engine ~target =
  let stamps = ref [] in
  let until e =
    stamps := now () :: !stamps;
    Netsim.Flood.informed_at e target <> None
  in
  let outcome =
    match Netsim.Engine.run ~until engine with
    | `Stopped r -> Printf.sprintf "stopped %d" r
    | `Quiescent r -> Printf.sprintf "quiescent %d" r
    | `Out_of_rounds -> "out_of_rounds"
  in
  let stamps = Array.of_list (List.rev !stamps) in
  (outcome, Array.init (Array.length stamps / 2) (fun k -> stamps.((2 * k) + 1) -. stamps.(2 * k)))

let churn_sim ~seed =
  let spec = ok_or_fail churn_topology (Topology.Registry.of_spec churn_topology) in
  let build_graph () =
    (Topology.Registry.build spec ~default_size:0 (Prng.Stream.create seed))
      .Topology.Registry.graph
  in
  (* The flood runs to the last vertex of the largest open cluster, from
     the first vertex of that cluster whose flood still spreads after 50
     rounds. Under churn a flood whose first sends are blocked dies at
     once, and a seed that floods nothing measures nothing. *)
  let source, target =
    let graph = build_graph () in
    let world = Percolation.World.create graph ~p:churn_p ~seed in
    let giant = Percolation.Clusters.membership world in
    let members =
      List.filter (Percolation.Clusters.member giant)
        (List.init graph.Topology.Graph.vertex_count Fun.id)
    in
    let spreads source =
      let e = Netsim.Engine.create ~churn:churn_plan world Netsim.Flood.protocol in
      Netsim.Flood.start e ~source;
      ignore (Netsim.Engine.run ~max_rounds:50 ~until:(fun _ -> false) e);
      Netsim.Engine.in_flight e > 0
    in
    match List.find_opt spreads members with
    | Some source -> (source, List.hd (List.rev members))
    | None -> fail "no flood in the largest cluster of seed %Ld spreads" seed
  in
  fun () ->
  let t0 = now () in
  let graph = build_graph () in
  let t1 = now () in
  let world = Percolation.World.create graph ~p:churn_p ~seed in
  Percolation.World.prefill world;
  let t2 = now () in
  let engine churn =
    let e = Netsim.Engine.create ?churn world Netsim.Flood.protocol in
    Netsim.Flood.start e ~source;
    e
  in
  let ready = ref (Some (engine (Some churn_plan))) in
  let setup_layers =
    [ ("topology.build_s", t1 -. t0); ("percolation.world_build_s", t2 -. t1) ]
  in
  (* The set-up engine serves the first pass; later passes make theirs
     outside the timed window. [jobs] is moot: netsim runs on one
     thread. *)
  let pass ~jobs:_ =
    let e =
      match !ready with
      | Some e ->
          ready := None;
          e
      | None -> engine (Some churn_plan)
    in
    let t0 = now () in
    let outcome, rounds = flood e ~target in
    let wall = now () -. t0 in
    let m = Netsim.Engine.metrics e in
    let counts =
      [
        ("netsim.rounds", Netsim.Metrics.rounds m);
        ("netsim.messages_sent", Netsim.Metrics.messages_sent m);
        ("netsim.messages_delivered", Netsim.Metrics.messages_delivered m);
        ("netsim.churn_blocked", Netsim.Metrics.churn_blocked m);
      ]
    in
    let ms = Array.map (fun s -> s *. 1e3) rounds in
    pass_of ~wall ~latencies:rounds
      ~layers:
        (setup_layers
        @ [ ("netsim.round_ms_p50", quantile 0.5 ms); ("netsim.round_ms_p99", quantile 0.99 ms) ]
        @ List.map (fun (k, v) -> (k, float_of_int v)) counts)
      (digest_string
         (String.concat " "
            (outcome
            :: string_of_int (Netsim.Flood.informed_count e)
            :: string_of_int (Netsim.Metrics.raw_probes m)
            :: string_of_int (Netsim.Metrics.distinct_probes m)
            :: List.map (fun (_, v) -> string_of_int v) counts)))
  in
  let extra_layers ~jobs:_ ~untraced =
    let e = engine None in
    let t0 = now () in
    ignore (flood e ~target);
    [ ("netsim.churn_overhead_s", untraced.wall -. (now () -. t0)) ]
  in
  { pass; extra_layers }

let workloads =
  [
    { name = "catalog-quick"; prepare = catalog_quick; burn_in = false };
    { name = "serve-replay"; prepare = serve_replay; burn_in = true };
    { name = "churn-sim"; prepare = churn_sim; burn_in = true };
  ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

let peak_rss_mb () =
  In_channel.with_open_bin "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:0.

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  samples : (string * int) list;
  claims_not_holding : int;
  measured : (string * float) list;
      (** Timed runs: the reference kernel's median, the speed factor and
          the end-to-end times before scaling. *)
}

(* Every pass must reproduce the first jobs-1 pass byte for byte; a
   pass that does not fails all of its queries. *)
let check passes =
  let reference =
    match List.find_opt (fun (jobs, _) -> jobs = 1) passes with
    | Some (_, p) -> p.digest
    | None -> ""
  in
  List.fold_left
    (fun (attempted, failed) (_, (p : pass)) ->
      let n = Array.length p.latencies in
      (attempted + n, failed + if p.digest = reference then p.failed else n))
    (0, 0) passes

let max_claims passes =
  List.fold_left (fun m (_, (p : pass)) -> max m p.claims_not_holding) 0 passes

(* A set-up sample repeats the set-up until the sample has lasted this
   long and reports the mean, so that a set-up of a few milliseconds is
   not timed alone against the clock and the scheduler. *)
let min_setup_sample_s = 0.1

(* Share of the measuring time given to further set-up samples, taken
   between passes, so that setup_s is drawn from the same stretch of
   machine time as the passes rather than from the run's first second.
   A sample is taken only when it fits in the share. *)
let setup_share = 0.1

let timed_run (inst_of : unit -> instance) ~burn_in ~seconds ~jobs =
  let samples = ref [] and resampled_s = ref 0. and last_sample_s = ref 0. in
  let references = ref [] in
  let reference () = references := time_reference () :: !references in
  let sample () =
    reference ();
    let t0 = now () in
    let rec go k =
      let inst = inst_of () in
      let dt = now () -. t0 in
      if dt >= min_setup_sample_s then begin
        samples := (dt /. float_of_int k, k) :: !samples;
        last_sample_s := dt;
        inst
      end
      else go (k + 1)
    in
    go 1
  in
  (* The first set-up's instance serves every pass; later samples are
     timed and dropped. *)
  let inst = sample () in
  let burnt = if burn_in then [ (1, inst.pass ~jobs:1) ] else [] in
  (* Timed passes run at jobs 1: at jobs J a pass also waits whenever
     another tenant holds one of the host's cores, and on the 2-vCPU
     host the benchmark was tuned on, jobs-J medians of the same code
     spread 0.2-0.8 from run to run. Start another pass only while it is
     expected to end within the budget, but run at least one. *)
  let start = now () in
  let rec loop acc =
    while !resampled_s +. !last_sample_s <= setup_share *. (now () -. start) do
      ignore (sample ());
      resampled_s := !resampled_s +. !last_sample_s
    done;
    reference ();
    Gc.full_major ();
    let p = inst.pass ~jobs:1 in
    let acc = p :: acc in
    if now () -. start +. p.wall <= seconds then loop acc else List.rev acc
  in
  let passes = List.map (fun p -> (1, p)) (loop []) in
  (* One untimed pass at jobs J, so that the check also covers the
     pool. *)
  let checked = burnt @ passes @ [ (jobs, inst.pass ~jobs) ] in
  let ps = List.map snd passes in
  let over f = median (Array.of_list (List.map f ps)) in
  let attempted, failed = check checked in
  let setups = Array.of_list !samples in
  let reference_s = median (Array.of_list !references) in
  let speed = reference_nominal_s /. reference_s in
  (* Times and rates as measured; [speed] brings them to reference
     speed. Each pass's latency percentile, median over passes: one slow
     pass cannot own the tail. *)
  let raw =
    [
      ("setup_s", median (Array.map fst setups), `Time);
      ("wall_s", over (fun p -> p.wall), `Time);
      ("queries_per_s", over (fun p -> float_of_int (Array.length p.latencies) /. p.wall), `Rate);
      ("query_latency_p50_ms", 1e3 *. over (fun p -> quantile 0.5 p.latencies), `Time);
      ("query_latency_p90_ms", 1e3 *. over (fun p -> quantile 0.9 p.latencies), `Time);
    ]
  in
  {
    attempted;
    failed;
    claims_not_holding = max_claims checked;
    metrics =
      List.map (fun (k, v, kind) -> (k, match kind with `Time -> v *. speed | `Rate -> v /. speed)) raw
      @ [ ("peak_rss_mb", peak_rss_mb ()) ];
    samples =
      [
        ("setup_s", Array.length setups);
        ("setups", Array.fold_left (fun n (_, k) -> n + k) 0 setups);
        ("passes", List.length ps);
        ("queries_per_pass", Array.length (List.hd ps).latencies);
        ("reference", List.length !references);
      ];
    measured = ("reference_s", reference_s) :: List.map (fun (k, v, _) -> (k, v)) raw;
  }

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    [
      ("runtime.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("runtime.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ( "runtime.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ] )

let with_tracing f =
  Obs.Timing.reset ();
  Obs.Metrics.reset_global ();
  Obs.Telemetry.reset ();
  Obs.Telemetry.set_sink ignore;
  Obs.Timing.enable ();
  Obs.Metrics.enable ();
  Obs.Telemetry.enable ();
  Fun.protect f ~finally:(fun () ->
      Obs.Timing.disable ();
      Obs.Metrics.disable ();
      Obs.Telemetry.disable ())

(* Per-layer numbers from the library's own spans, counters and
   telemetry, read after the traced pass. *)
let library_layers () =
  let spans = Obs.Timing.report () in
  let self name =
    List.fold_left
      (fun acc (e : Obs.Timing.entry) -> if e.name = name then acc +. e.self_s else acc)
      0. spans
  in
  let snap = Obs.Metrics.global_snapshot () in
  let count name = float_of_int (Obs.Metrics.counter snap name) in
  let count_prefixed prefix =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
      0 (Obs.Metrics.counters snap)
    |> float_of_int
  in
  let tele = Obs.Telemetry.snapshot () in
  let slot_sum suffix =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"pool.domain." k && String.ends_with ~suffix k
        then acc +. v
        else acc)
      0. tele.Obs.Telemetry.gauges
  in
  let hist_ns name q =
    match List.assoc_opt name tele.Obs.Telemetry.hists with
    | Some h -> Option.value (Obs.Telemetry.hist_quantile_ns h q) ~default:0.
    | None -> 0.
  in
  let fresh = count "oracle.probe.fresh" and memo = count "oracle.probe.memo" in
  let found = count "trial.outcome.found" in
  let routed = found +. count "trial.outcome.no_path" +. count "trial.outcome.budget_exceeded" in
  let attempts = count "trial.attempts" and accepts = count "trial.accepts" in
  [
    ("percolation.reveal_self_s", self "reveal.bfs");
    ("percolation.reveal_runs", count "reveal.bfs_runs");
    ("percolation.reveal_visited", count "reveal.visited");
    ("percolation.probes_fresh", fresh);
    ("percolation.probes_memo", memo);
    ("percolation.probe_memo_ratio", ratio memo (fresh +. memo));
    ("percolation.oracle_query_self_s", self "oracle.world_query");
    ("routing.run_self_s", self "router.run");
    ("routing.runs", count_prefixed "router.runs.");
    ("routing.found_ratio", ratio found routed);
    ("experiments.trial_attempts", attempts);
    ("experiments.trial_accepts", accepts);
    ("experiments.accept_ratio", ratio accepts attempts);
    ("experiments.trial_reveal_self_s", self "trial.reveal");
    ( "engine_par.dispatches",
      Option.value (List.assoc_opt "pool.dispatches" tele.Obs.Telemetry.gauges) ~default:0. );
    ("engine_par.utilization", ratio (slot_sum ".busy_s") (slot_sum ".wall_s"));
    ("engine_par.task_ns_p50", hist_ns "pool.task_ns" 0.5);
    ("engine_par.queue_wait_ns_p99", hist_ns "pool.queue_wait_ns" 0.99);
    ("engine_par.collect_prefix_self_s", self "pool.collect_prefix");
  ]
  @ List.concat_map
      (fun op ->
        let hist = Printf.sprintf "serve.latency.%s_ns" op in
        [
          (Printf.sprintf "serve.exec_%s_ns_p50" op, hist_ns hist 0.5);
          (Printf.sprintf "serve.exec_%s_ns_p99" op, hist_ns hist 0.99);
        ])
      [ "route"; "reveal"; "cluster" ]

let traced_run (inst_of : unit -> instance) ~burn_in ~jobs =
  let inst = inst_of () in
  if burn_in then List.iter (fun j -> ignore (inst.pass ~jobs:j)) [ jobs; 1 ];
  let pn = inst.pass ~jobs in
  let p1, runtime = gc_delta (fun () -> inst.pass ~jobs:1) in
  let pt = with_tracing (fun () -> inst.pass ~jobs) in
  let library = library_layers () in
  let extra = inst.extra_layers ~jobs ~untraced:pn in
  (* Later sources override earlier ones: the library's counters, then
     what the benchmark saw around its own calls. *)
  let table = Hashtbl.create 128 in
  List.iter (fun (k, v) -> Hashtbl.replace table k v) (library @ runtime @ pn.layers @ extra);
  (* Parallel efficiency means something only where the pool ran. *)
  if Hashtbl.find table "engine_par.dispatches" > 0. then
    Hashtbl.replace table "engine_par.efficiency" (ratio p1.wall (float_of_int jobs *. pn.wall));
  Hashtbl.replace table "trace_overhead_ratio" (ratio pt.wall pn.wall);
  (* The jobs-J figures timed runs leave out: one untraced pass each. *)
  Hashtbl.replace table "engine_par.wall_s_jobs_n" pn.wall;
  Hashtbl.replace table "engine_par.wall_s_jobs_1" p1.wall;
  let passes = [ (1, p1); (jobs, pn); (jobs, pt) ] in
  let attempted, failed = check passes in
  {
    attempted;
    failed;
    claims_not_holding = max_claims passes;
    metrics = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []);
    samples = [ ("passes", 3) ];
    measured = [];
  }

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seconds S [--seed N] [--trace 0|1]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else fail "non-finite metric value %f" x

let () =
  let args = ref [] in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        args := (key, value) :: !args;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg_opt key conv =
    match List.assoc_opt key !args with
    | None -> None
    | Some v -> ( match conv v with Some x -> Some x | None -> usage ())
  in
  let arg key ~default conv = Option.value (arg_opt key conv) ~default in
  let workload =
    match
      List.find_opt
        (fun w -> Some w.name = List.assoc_opt "--workload" !args)
        workloads
    with
    | Some w -> w
    | None -> usage ()
  in
  let seed = arg "--seed" ~default:default_seed Int64.of_string_opt in
  let seconds =
    match arg_opt "--seconds" float_of_string_opt with Some s -> s | None -> usage ()
  in
  let trace = arg "--trace" ~default:0 int_of_string_opt in
  let jobs = Engine_par.Pool.recommended_jobs () in
  if trace <> 0 && trace <> 1 then usage ();
  let inst_of = workload.prepare ~seed in
  let r =
    if trace = 1 then traced_run inst_of ~burn_in:workload.burn_in ~jobs
    else timed_run inst_of ~burn_in:workload.burn_in ~seconds ~jobs
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "provenance",
              J.Obj
                [
                  ("workload", J.String workload.name);
                  ("seed", J.String (Int64.to_string seed));
                  ("default_seed", J.String (Int64.to_string default_seed));
                  ("nproc", J.Int jobs);
                  ("jobs", J.Int jobs);
                  ("ocaml", J.String Sys.ocaml_version);
                  ("trace", J.Int trace);
                  ("seconds", J.Float seconds);
                  ("samples", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) r.samples));
                  ("claims_not_holding", J.Int r.claims_not_holding);
                  ("measured", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.measured));
                ] );
          ]));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (number v)) r.metrics))
