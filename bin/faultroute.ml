(* faultroute — command-line front end.

   Subcommands:
     list                      enumerate experiments, topologies, routers
     exp <id> [--quick]        run one experiment, print its report
     all [--quick]             run every experiment
     check [--quick]           evaluate machine-checked claims vs a baseline
     route <topology> ...      one routing attempt with a chosen router
     census <topology> ...     component census of one percolated world
     threshold <topology> ...  bisect a critical probability
     serve --manifest <file>   resident-world streamed JSONL query service
     evidence <file>           validate an evidence/v1 summary
     trace <file>              replay a trace/v1 JSONL file and audit it

   Observability: [--trace FILE] streams probe-level trace/v1 JSONL,
   [--metrics-out FILE] writes the merged metrics/v1 counters, and
   [--strict-shortfall] turns under-sampled reports into exit code 3.
   All instrumentation is off (and free) unless a flag asks for it.
   These recur across subcommands, so they travel as one [common]
   record built by one shared cmdliner term (same flag names, docs and
   defaults everywhere); the fault-tolerance flags travel likewise as a
   [supervision] record.

   Fault tolerance (exp/all/check): [--retries N] and
   [--chunk-deadline S] arm the supervised worker pool, [--inject SPEC]
   / [--fault-plan FILE] install a deterministic fault plan, and
   [--checkpoint DIR] journals completed chunks ([--resume] restores
   them). Recovered faults are reported on stderr as faults/v1;
   unrecoverable ones (quarantined chunks, failed experiments) exit 5.

   Exit codes are centralised in [Verdict.Exit_code]; see the README
   table.

   Topologies and routers are resolved through their registries
   ([Topology.Registry], [Routing.Registry]); this file contains no
   name-matching of its own. A topology spec is NAME or NAME:SIZE. *)

let default_seed = 0x5EEDL

(* The flags shared by exp/all/check/route/simulate/serve, as data:
   one record, one term (see [common_term] below), no per-subcommand
   duplicates to drift apart. *)
type common = {
  seed : int64;
  jobs : int;
  trace : string option;
  metrics_out : string option;
  telemetry : bool;
  telemetry_out : string option;
  profile_out : string option;
  ledger : string option;
  strict : bool;
}

(* The fault-tolerance flags of the campaign subcommands
   (exp/all/check), likewise unified. *)
type supervision = {
  inject : string option;
  fault_plan : string option;
  checkpoint : string option;
  resume : bool;
  retries : int option;
  deadline : float option;
}

let with_instance spec_string ~size stream k =
  match Topology.Registry.of_spec spec_string with
  | Error message ->
      prerr_endline message;
      1
  | Ok spec -> (
      match Topology.Registry.build spec ~default_size:size stream with
      | instance -> k instance
      | exception Invalid_argument message ->
          prerr_endline message;
          1)

(* Options are checked before any world is built or anything is
   printed: the first malformed one is a single stderr line and
   exit 1. *)
let with_valid_options errors k =
  match List.find_map Fun.id errors with
  | Some message ->
      prerr_endline message;
      Verdict.Exit_code.error
  | None -> k ()

(* An output path fails the same way, as one "PATH: reason" line, when
   its directory is missing, is not a directory or is not writable, or
   when the path names a directory or an unwritable file. [~mkdir]
   marks writers that create missing parent directories (the ledger, a
   baseline): for them the nearest existing ancestor must be a
   writable directory. Nothing is opened, so nothing is created or
   truncated before the run. *)
let output_path_error ~mkdir path =
  let reason code = Some (Printf.sprintf "%s: %s" path (Unix.error_message code)) in
  let rec dir_error dir =
    match (Unix.stat dir).Unix.st_kind with
    | Unix.S_DIR -> (
        match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
        | () -> None
        | exception Unix.Unix_error (code, _, _) -> reason code)
    | _ -> reason Unix.ENOTDIR
    | exception Unix.Unix_error (Unix.ENOENT, _, _)
      when mkdir && Filename.dirname dir <> dir ->
        dir_error (Filename.dirname dir)
    | exception Unix.Unix_error (code, _, _) -> reason code
  in
  match dir_error (Filename.dirname path) with
  | Some _ as error -> error
  | None -> (
      match (Unix.stat path).Unix.st_kind with
      | Unix.S_DIR -> reason Unix.EISDIR
      | _ -> (
          match Unix.access path [ Unix.W_OK ] with
          | () -> None
          | exception Unix.Unix_error (code, _, _) -> reason code)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
      | exception Unix.Unix_error (code, _, _) -> reason code)

let output_errors ?(mkdir = []) paths =
  List.map (output_path_error ~mkdir:false) (List.filter_map Fun.id paths)
  @ List.map (output_path_error ~mkdir:true) (List.filter_map Fun.id mkdir)

(* ------------------------------------------------------------------ *)
(* Observability plumbing: arm tracing/metrics around a subcommand
   body, then flush the sinks whatever happens.                        *)

let with_observability ~trace ~metrics_out ~telemetry ~telemetry_out
    ~profile_out k =
  let trace_channel =
    Option.map
      (fun path ->
        let oc = open_out path in
        Obs.Trace.enable ~sink:(fun s -> output_string oc s);
        oc)
      trace
  in
  if Option.is_some metrics_out then begin
    Obs.Metrics.reset_global ();
    Obs.Metrics.enable ()
  end;
  let telemetered = telemetry || Option.is_some telemetry_out in
  let telemetry_channel =
    if not telemetered then None
    else begin
      Obs.Telemetry.reset ();
      match telemetry_out with
      | None ->
          (* Default sink: heartbeat lines on stderr, out of the way of
             answers and reports on stdout. *)
          Obs.Telemetry.enable ();
          None
      | Some path ->
          let oc = open_out path in
          Obs.Telemetry.set_sink (fun s ->
              output_string oc s;
              flush oc);
          Obs.Telemetry.enable ();
          Some oc
    end
  in
  if Option.is_some profile_out then begin
    Obs.Timing.reset ();
    Obs.Timing.enable ()
  end;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun oc ->
          Obs.Trace.disable ();
          close_out oc)
        trace_channel;
      Option.iter
        (fun path ->
          Obs.Metrics.disable ();
          let oc = open_out path in
          output_string oc (Obs.Metrics.to_json (Obs.Metrics.global_snapshot ()));
          close_out oc)
        metrics_out;
      if telemetered then begin
        (* One final forced snapshot so even a subcommand that never
           heartbeats leaves a complete telemetry/v1 artifact. *)
        Obs.Telemetry.heartbeat ();
        Obs.Telemetry.disable ();
        Obs.Telemetry.set_sink (fun s ->
            output_string stderr s;
            flush stderr);
        Option.iter close_out telemetry_channel
      end;
      Option.iter
        (fun path ->
          Obs.Timing.disable ();
          let oc = open_out path in
          output_string oc (Obs.Timing.profile_json ());
          close_out oc)
        profile_out)
    k

(* Arm the run ledger when [--ledger] asked for one: the record binds
   this invocation (subcommand, argv digest, seed, jobs) to every
   artifact the common flags will write. Digests are taken at process
   exit, after with_observability's finally has flushed and closed the
   sinks, so they cover the final bytes. *)
let arm_ledger ~cmd common =
  Option.iter
    (fun path ->
      Obs.Ledger.arm ~path ~subcommand:cmd
        ~config_digest:
          (Obs.Ledger.digest_string
             (String.concat "\x00" (Array.to_list Sys.argv)))
        ~seed:common.seed ~jobs:common.jobs;
      List.iter
        (Option.iter Obs.Ledger.note_artifact)
        [
          common.trace; common.metrics_out; common.telemetry_out;
          common.profile_out;
        ])
    common.ledger

(* Arm everything the [common] record asks for around a subcommand
   body: first check every output path — the common flags', the
   subcommand's own [outputs], which the ledger records too, and the
   files in [created] whose writer makes missing parent directories, as
   the ledger's does (check's --update baseline) — then set the ambient
   job count, arm the run ledger, then tracing/metrics/telemetry. *)
let with_common ~cmd ?(outputs = []) ?(created = []) common k =
  with_valid_options
    (output_errors ~mkdir:(common.ledger :: created)
       ([
          common.trace; common.metrics_out; common.telemetry_out;
          common.profile_out;
        ]
       @ outputs))
  @@ fun () ->
  Engine_par.Pool.set_default_jobs common.jobs;
  arm_ledger ~cmd common;
  List.iter (Option.iter Obs.Ledger.note_artifact) outputs;
  with_observability ~trace:common.trace ~metrics_out:common.metrics_out
    ~telemetry:common.telemetry ~telemetry_out:common.telemetry_out
    ~profile_out:common.profile_out k

let strict_shortfall_exit ~strict reports =
  let short = List.filter Experiments.Report.has_shortfall reports in
  if strict && short <> [] then begin
    Printf.eprintf
      "strict-shortfall: %d report(s) under-sampled (%s): %s\n"
      (List.length short) Experiments.Report.shortfall_marker
      (String.concat ", " (List.map (fun r -> r.Experiments.Report.id) short));
    Verdict.Exit_code.strict_shortfall
  end
  else Verdict.Exit_code.ok

(* ------------------------------------------------------------------ *)
(* Supervision plumbing: check the flags and resolve the fault plan,
   arm the supervisor policy and the checkpoint around a campaign body,
   then surface the fault summary. A bad flag is one stderr line and
   exit 1, before anything is armed or printed. Recovered faults go to
   stderr only — stdout must stay byte-identical to a fault-free run
   when every chunk eventually succeeded. Unrecoverable losses
   (quarantined chunks, failed experiments) escalate the exit code
   to 5. *)

let with_supervision { inject; fault_plan; checkpoint; resume; retries; deadline }
    k =
  let plan =
    match (retries, deadline, inject, fault_plan) with
    | Some n, _, _, _ when n < 1 ->
        Error (Printf.sprintf "--retries must be at least 1, got %d" n)
    | _, Some d, _, _ when not (Float.is_finite d && d > 0.0) ->
        Error
          (Printf.sprintf
             "--chunk-deadline must be a positive finite number of seconds, got %g"
             d)
    | _ when resume && checkpoint = None -> Error "--resume needs --checkpoint DIR"
    | _, _, Some spec, _ -> Result.map Option.some (Faultsim.Plan.of_spec spec)
    | _, _, None, Some path -> Result.map Option.some (Faultsim.Plan.load path)
    | _, _, None, None -> Ok None
  in
  match plan with
  | Error message ->
      prerr_endline message;
      Verdict.Exit_code.error
  | Ok plan ->
      let supervised =
        plan <> None || checkpoint <> None || retries <> None
        || deadline <> None
      in
      if not supervised then k ()
      else begin
        let base = Engine_par.Supervisor.default_policy in
        let policy =
          {
            base with
            Engine_par.Supervisor.max_attempts =
              Option.value retries
                ~default:base.Engine_par.Supervisor.max_attempts;
            deadline_s = deadline;
          }
        in
        let checkpoint_ready =
          match checkpoint with
          | None -> Ok ()
          | Some dir ->
              Option.iter
                (fun p ->
                  Experiments.Checkpoint.set_kill_after
                    (Faultsim.Plan.die_after_chunks p))
                plan;
              Experiments.Checkpoint.configure ~dir ~resume
        in
        match checkpoint_ready with
        | Error message ->
            Printf.eprintf "checkpoint: %s\n" message;
            Verdict.Exit_code.error
        | Ok () -> (
            Engine_par.Supervisor.reset_global ();
            Engine_par.Supervisor.arm policy;
            Faultsim.Plan.set_ambient plan;
            (* SIGINT: the journal is flushed line by line, so a clean
               close is all an interrupted campaign needs to resume. *)
            let previous_sigint =
              Sys.signal Sys.sigint
                (Sys.Signal_handle
                   (fun _ ->
                     Experiments.Checkpoint.deconfigure ();
                     exit 130))
            in
            let code =
              Fun.protect
                ~finally:(fun () ->
                  Sys.set_signal Sys.sigint previous_sigint;
                  if Obs.Metrics.on () then begin
                    Obs.Metrics.absorb
                      (Engine_par.Supervisor.metrics_snapshot ());
                    if Experiments.Checkpoint.active () then
                      Obs.Metrics.absorb
                        (Experiments.Checkpoint.metrics_snapshot ())
                  end;
                  Experiments.Checkpoint.deconfigure ();
                  Faultsim.Plan.set_ambient None;
                  Engine_par.Supervisor.disarm ())
                k
            in
            let summary : Engine_par.Supervisor.summary =
              Engine_par.Supervisor.global_summary ()
            in
            if
              summary.retries > 0
              || summary.failures <> []
              || summary.quarantined <> []
              || summary.failed_units <> []
            then
              Printf.eprintf "%s\n"
                (Obs.Json.to_string
                   (Engine_par.Supervisor.summary_json summary));
            if Engine_par.Supervisor.unrecoverable summary then begin
              Printf.eprintf
                "unrecoverable faults: %d chunk(s) quarantined, %d \
                 experiment(s) failed\n"
                (List.length summary.quarantined)
                (List.length summary.failed_units);
              Verdict.Exit_code.worst
                [ code; Verdict.Exit_code.unrecoverable_faults ]
            end
            else code)
      end

(* ------------------------------------------------------------------ *)
(* Subcommand implementations.                                         *)

let cmd_list () =
  print_endline "experiments:";
  List.iter
    (fun e ->
      Printf.printf "  %-4s %s\n" e.Experiments.Catalog.id e.Experiments.Catalog.title)
    Experiments.Catalog.all;
  print_endline "topologies (spec: NAME or NAME:SIZE):";
  List.iter
    (fun e ->
      Printf.printf "  %-17s %s\n" e.Topology.Registry.name e.Topology.Registry.doc)
    Topology.Registry.entries;
  print_endline "routers:";
  List.iter
    (fun e ->
      Printf.printf "  %-17s %s\n" e.Routing.Registry.name e.Routing.Registry.doc)
    Routing.Registry.entries;
  0

let cmd_exp id quick csv common supervision =
  match Experiments.Catalog.find id with
  | None ->
      Printf.eprintf "no experiment %S; see `faultroute list`\n" id;
      1
  | Some e ->
      with_common ~cmd:"exp" common @@ fun () ->
      with_supervision supervision @@ fun () ->
      let stream = Prng.Stream.create common.seed in
      let report = e.Experiments.Catalog.run ~quick stream in
      if csv then
        List.iter
          (fun (caption, body) -> Printf.printf "# %s\n%s" caption body)
          (Experiments.Report.render_csv report)
      else Experiments.Report.print report;
      strict_shortfall_exit ~strict:common.strict [ report ]

let cmd_all quick common supervision =
  with_common ~cmd:"all" common @@ fun () ->
  with_supervision supervision @@ fun () ->
  let reports =
    Experiments.Catalog.run_all ~quick ~jobs:common.jobs ~seed:common.seed ()
  in
  List.iter
    (fun r ->
      Experiments.Report.print r;
      print_newline ())
    reports;
  strict_shortfall_exit ~strict:common.strict reports

let default_baseline_path ~quick =
  if quick then "verdicts/baseline.json" else "verdicts/baseline-full.json"

(* Load evidence/v1 files named by [check --evidence] and turn each
   into its machine-checkable claims; a file that fails to load or
   validate is itself a failed check. *)
let evidence_claims paths =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match Serve.Evidence.load path with
        | Error message -> Error (Printf.sprintf "%s: %s" path message)
        | Ok evidence -> (
            match Serve.Evidence.validate evidence with
            | Error message -> Error (Printf.sprintf "%s: %s" path message)
            | Ok () -> collect (Serve.Evidence.claims evidence @ acc) rest))
  in
  collect [] paths

let cmd_check quick baseline_path out update evidence_files common supervision =
  let path = Option.value baseline_path ~default:(default_baseline_path ~quick) in
  with_common ~cmd:"check" ~outputs:[ out ]
    ~created:[ (if update then Some path else None) ]
    common
  @@ fun () ->
  let seed = common.seed and jobs = common.jobs in
  let mode = if quick then "quick" else "full" in
  match evidence_claims evidence_files with
  | Error message ->
      Printf.eprintf "check: evidence %s\n" message;
      Verdict.Exit_code.claim_fail
  | Ok evidence_claims ->
  with_supervision supervision
  @@ fun () ->
  let reports = Experiments.Catalog.run_all ~quick ~jobs ~seed () in
  let claims =
    List.concat_map (fun r -> r.Experiments.Report.claims) reports
    @ evidence_claims
  in
  let baseline =
    if update then None
    else
      match Verdict.Baseline.load path with
      | Ok b ->
          if b.Verdict.Baseline.mode <> mode || b.Verdict.Baseline.seed <> seed
          then begin
            Printf.eprintf
              "check: baseline %s is for (mode %s, seed %Ld), this run is \
               (mode %s, seed %Ld); ignoring it\n"
              path b.Verdict.Baseline.mode b.Verdict.Baseline.seed mode seed;
            None
          end
          else Some b
      | Error message ->
          Printf.eprintf "check: no usable baseline at %s (%s); evaluating \
                          claims without drift detection\n"
            path message;
          None
  in
  let verdict = Verdict.Engine.evaluate ~mode ~seed ?baseline claims in
  print_string (Verdict.Engine.render verdict);
  Option.iter
    (fun out_path ->
      let oc = open_out out_path in
      output_string oc (Obs.Json.to_string (Verdict.Engine.to_json verdict));
      output_char oc '\n';
      close_out oc)
    out;
  let shortfall = strict_shortfall_exit ~strict:common.strict reports in
  let code = Verdict.Engine.exit_code verdict in
  if update then
    if code = Verdict.Exit_code.claim_fail then begin
      prerr_endline "check: refusing to --update a baseline from failing claims";
      Verdict.Exit_code.claim_fail
    end
    else begin
      (* Baseline.save creates missing parent directories and writes
         atomically, so --update works on a fresh clone where the
         verdicts/ tree does not exist yet. *)
      Verdict.Baseline.save path (Verdict.Engine.baseline verdict);
      Printf.printf "baseline written: %s (%d claims)\n" path
        (List.length claims);
      shortfall
    end
  else if code = Verdict.Exit_code.claim_fail then code
  else if shortfall <> Verdict.Exit_code.ok then shortfall
  else code

(* NaN fails both comparisons, so it is rejected too. *)
let p_error p =
  if p >= 0.0 && p <= 1.0 then None
  else Some (Printf.sprintf "-p must be in [0, 1], got %g" p)

let at_least_one name n =
  if n >= 1 then None else Some (Printf.sprintf "%s must be at least 1, got %d" name n)

(* The [--source]/[--target] endpoints on [graph] (defaults: its first
   and last vertex), or the one-line range error naming the vertex. *)
let endpoints graph source target =
  let source = Option.value source ~default:0 in
  let target = Option.value target ~default:(graph.Topology.Graph.vertex_count - 1) in
  match List.iter (Topology.Graph.check_vertex graph) [ source; target ] with
  | () -> Ok (source, target)
  | exception Invalid_argument message -> Error message

let cmd_route topology size p source target router_name budget common =
  with_valid_options [ p_error p; Option.bind budget (at_least_one "--budget") ]
  @@ fun () ->
  let seed = common.seed in
  let stream = Prng.Stream.create seed in
  with_instance topology ~size (Prng.Stream.split stream 0) @@ fun instance ->
  let graph = instance.Topology.Registry.graph in
  match endpoints graph source target with
  | Error message ->
      prerr_endline message;
      Verdict.Exit_code.error
  | Ok (source, target) ->
  let router =
    Result.bind (Routing.Registry.of_spec router_name) (fun entry ->
        entry.Routing.Registry.build ~instance ~source ~target
          (Prng.Stream.split stream 1))
  in
  match router with
  | Error message ->
      prerr_endline message;
      1
  | Ok router ->
      with_common ~cmd:"route" common @@ fun () ->
      (* The world's seed must come from its own split of the root
         stream, not the raw CLI seed: splits 0 and 1 already feed
         topology and router randomness, and reusing the root seed for
         the edge coins would correlate router coin draws with edge
         states (the same discipline as Trial.run_attempt). *)
      let world_seed = Prng.Stream.seed (Prng.Stream.split stream 2) in
      let world = Percolation.World.create graph ~p ~seed:world_seed in
      let observed =
        Obs.Trace.observe ~index:1 (fun () ->
            let ground_truth = Percolation.Reveal.connected world source target in
            let outcome = Routing.Router.run ?budget router world ~source ~target in
            Percolation.Reveal.trace_verdict ground_truth
              ~probes:(Routing.Outcome.probes outcome);
            (ground_truth, outcome))
      in
      let ground_truth, outcome = observed.Obs.Trace.value in
      Obs.Trace.write_run
        ~header:
          [
            ("graph", Obs.Json.String graph.Topology.Graph.name);
            ("p", Obs.Json.Float p);
            ("source", Obs.Json.Int source);
            ("target", Obs.Json.Int target);
            ("router", Obs.Json.String router.Routing.Router.name);
            ( "budget",
              match budget with Some b -> Obs.Json.Int b | None -> Obs.Json.Null );
            ("trials", Obs.Json.Int 1);
            ("max_attempts", Obs.Json.Int 1);
          ]
        ~attempts:1
        ~accepted:
          (match ground_truth with Percolation.Reveal.Connected _ -> 1 | _ -> 0)
        (Option.to_list observed.Obs.Trace.record);
      Obs.Metrics.absorb observed.Obs.Trace.metrics;
      Printf.printf "world: %s, p = %.4f, seed = %Ld\n" graph.Topology.Graph.name p seed;
      Printf.printf "pair: %d -> %d\n" source target;
      (match ground_truth with
      | Percolation.Reveal.Connected d ->
          Printf.printf "ground truth: connected, percolation distance %d\n" d
      | Percolation.Reveal.Disconnected -> print_endline "ground truth: disconnected"
      | Percolation.Reveal.Unknown -> print_endline "ground truth: unknown (limit)");
      Printf.printf "router %s: %s\n" router.Routing.Router.name
        (Format.asprintf "%a" Routing.Outcome.pp outcome);
      0

(* A census allocates a union-find of three words per vertex. On a
   graph far past memory that allocation fails at once, before anything
   is printed, and the run exits 1 with one line. *)
let with_census_memory (graph : Topology.Graph.t) k =
  match k () with
  | code -> code
  | exception Out_of_memory ->
      Printf.eprintf "%s: %d vertices, too many to count clusters in memory\n"
        graph.Topology.Graph.name graph.Topology.Graph.vertex_count;
      Verdict.Exit_code.error

let cmd_census topology size p seed =
  with_valid_options [ p_error p ] @@ fun () ->
  let stream = Prng.Stream.create seed in
  with_instance topology ~size stream @@ fun instance ->
  let graph = instance.Topology.Registry.graph in
  with_census_memory graph @@ fun () ->
  let world = Percolation.World.create graph ~p ~seed in
  let census = Percolation.Clusters.census world in
  Printf.printf "world: %s, p = %.4f, seed = %Ld\n" graph.Topology.Graph.name p seed;
  Printf.printf "vertices: %d, open edges: %d\n" census.Percolation.Clusters.vertex_count
    census.Percolation.Clusters.open_edge_count;
  Printf.printf "components: %d, largest: %d (%.2f%%), second: %d\n"
    census.Percolation.Clusters.component_count census.Percolation.Clusters.largest
    (100.0 *. Percolation.Clusters.giant_fraction census)
    census.Percolation.Clusters.second_largest;
  Printf.printf "giant present: %b\n" (Percolation.Clusters.has_giant census);
  0

let cmd_threshold topology size seed jobs trials =
  with_valid_options [ at_least_one "--trials" trials ] @@ fun () ->
  let stream = Prng.Stream.create seed in
  with_instance topology ~size stream @@ fun instance ->
  let graph = instance.Topology.Registry.graph in
  with_census_memory graph @@ fun () ->
  let event ~p ~seed =
    let world = Percolation.World.create graph ~p ~seed in
    Percolation.Clusters.has_giant (Percolation.Clusters.census world)
  in
  let estimate =
    Experiments.Threshold.bisect ~jobs ~trials_per_pivot:trials
      ~name:graph.Topology.Graph.name stream ~event ~lo:0.0 ~hi:1.0
  in
  Printf.printf "%s: estimated giant-component threshold p_c ~= %.4f\n"
    graph.Topology.Graph.name estimate;
  0

let cmd_mincut topology size seed source target =
  let stream = Prng.Stream.create seed in
  with_instance topology ~size stream @@ fun instance ->
  let graph = instance.Topology.Registry.graph in
  let distinct (source, target) =
    if source = target then
      Error
        (Printf.sprintf "mincut: --source and --target must differ (both are vertex %d)"
           source)
    else Ok (source, target)
  in
  match Result.bind (endpoints graph source target) distinct with
  | Error message ->
      prerr_endline message;
      Verdict.Exit_code.error
  | Ok (source, target) ->
  let flow = Topology.Mincut.max_flow graph ~source ~sink:target in
  let cut = Topology.Mincut.min_cut graph ~source ~sink:target in
  Printf.printf "%s: edge connectivity of (%d, %d) = %d\n" graph.Topology.Graph.name
    source target flow;
  Printf.printf "one minimum cut: %s\n"
    (String.concat ", " (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) cut));
  0

let cmd_simulate topology size p protocol_name source target max_rounds rounds
    churn_spec common =
  (* Eager validation, same convention as the bench arg parser: a
     malformed flag dies on stderr with usage and exit 2 before any
     world is built. *)
  let die message =
    Printf.eprintf "simulate: %s\n" message;
    prerr_endline "usage: faultroute simulate TOPOLOGY[:SIZE] [-p P]";
    prerr_endline
      "         [--protocol flood|gossip|greedy|walk] [--source U] [--target V]";
    prerr_endline
      ("         [--max-rounds R] [--rounds N] [--churn "
     ^ Netsim.Churn.spec_syntax ^ "]");
    2
  in
  let protocol =
    List.assoc_opt
      (String.lowercase_ascii protocol_name)
      [ ("flood", `Flood); ("gossip", `Gossip); ("greedy", `Greedy); ("walk", `Walk) ]
  in
  match (Option.map Netsim.Churn.of_spec churn_spec, protocol) with
  | Some (Error message), _ -> die message
  | _, None ->
      die
        (Printf.sprintf "unknown protocol %S (try flood, gossip, greedy, walk)"
           protocol_name)
  | (None | Some (Ok _)) as parsed_churn, Some protocol ->
  if (match rounds with Some n -> n < 1 | None -> false) then
    die "--rounds must be >= 1"
  else if max_rounds < 1 then die "--max-rounds must be >= 1"
  else
  match p_error p with
  | Some message -> die message
  | None -> begin
  let churn =
    match parsed_churn with Some (Ok plan) -> Some plan | _ -> None
  in
  let seed = common.seed in
  let stream = Prng.Stream.create seed in
  with_instance topology ~size stream @@ fun instance ->
  let graph = instance.Topology.Registry.graph in
  match endpoints graph source target with
  | Error message -> die message
  | Ok (source, target) ->
  with_common ~cmd:"simulate" common @@ fun () ->
  let world = Percolation.World.create graph ~p ~seed in
  Printf.printf "world: %s, p = %.4f, seed = %Ld; %s from %d to %d%s\n"
    graph.Topology.Graph.name p seed protocol_name source target
    (match churn with
    | Some plan -> Printf.sprintf " (churn %s)" (Netsim.Churn.describe plan)
    | None -> "");
  let describe metrics result =
    (match result with
    | `Stopped rounds -> Printf.printf "outcome: target reached at round %d\n" rounds
    | `Quiescent rounds ->
        Printf.printf "outcome: network quiescent at round %d (target not reached)\n"
          rounds
    | `Out_of_rounds -> print_endline "outcome: round limit hit");
    Printf.printf "cost: %s\n" (Format.asprintf "%a" Netsim.Metrics.pp metrics);
    if Obs.Metrics.on () then Obs.Metrics.absorb (Netsim.Metrics.snapshot metrics);
    0
  in
  (* With [--rounds] the engine steps one round at a time, printing a
     delivery summary per round from the metric deltas (stopping early
     when the target is reached); otherwise the plain [run] loop. *)
  let run_protocol :
      type s m.
      (s, m) Netsim.Engine.t ->
      until:((s, m) Netsim.Engine.t -> bool) ->
      [ `Stopped of int | `Quiescent of int | `Out_of_rounds ] =
   fun engine ~until ->
    match rounds with
    | None -> Netsim.Engine.run ~max_rounds engine ~until
    | Some n ->
        let metrics = Netsim.Engine.metrics engine in
        let outcome = ref None in
        let r = ref 0 in
        while !outcome = None && !r < n do
          let sent0 = Netsim.Metrics.messages_sent metrics in
          let delivered0 = Netsim.Metrics.messages_delivered metrics in
          let blocked0 = Netsim.Metrics.churn_blocked metrics in
          Netsim.Engine.run_round engine;
          incr r;
          Printf.printf "round %d: sent %d delivered %d churn-blocked %d in-flight %d\n"
            !r
            (Netsim.Metrics.messages_sent metrics - sent0)
            (Netsim.Metrics.messages_delivered metrics - delivered0)
            (Netsim.Metrics.churn_blocked metrics - blocked0)
            (Netsim.Engine.in_flight engine);
          if until engine then outcome := Some (`Stopped !r)
        done;
        (match !outcome with Some o -> o | None -> `Out_of_rounds)
  in
  (* The whole simulation is one observed trace/v1 attempt: engine
     probes emit probe events inside it, and the terminal accept/reject
     carries the distinct-probe count so the replay checker audits the
     same accounting as routed runs. *)
  let run_and_describe :
      type s m.
      (s, m) Netsim.Engine.t ->
      until:((s, m) Netsim.Engine.t -> bool) ->
      extra:((s, m) Netsim.Engine.t -> unit) ->
      int =
   fun engine ~until ~extra ->
    let metrics = Netsim.Engine.metrics engine in
    let observed =
      Obs.Trace.observe ~index:1 (fun () ->
          let result = run_protocol engine ~until in
          (if Obs.Trace.on () then
             match result with
             | `Stopped r ->
                 Obs.Trace.emit
                   (Obs.Trace.Accept
                      { distance = r; probes = Netsim.Metrics.distinct_probes metrics })
             | `Quiescent _ | `Out_of_rounds ->
                 Obs.Trace.emit (Obs.Trace.Reject { reason = Obs.Trace.Disconnected }));
          result)
    in
    let result = observed.Obs.Trace.value in
    Obs.Trace.write_run
      ~header:
        [
          ("graph", Obs.Json.String graph.Topology.Graph.name);
          ("p", Obs.Json.Float p);
          ("source", Obs.Json.Int source);
          ("target", Obs.Json.Int target);
          ("protocol", Obs.Json.String (Netsim.Engine.protocol_name engine));
          ( "churn",
            match churn with
            | Some plan -> Netsim.Churn.to_json plan
            | None -> Obs.Json.Null );
          ("trials", Obs.Json.Int 1);
          ("max_attempts", Obs.Json.Int 1);
        ]
      ~attempts:1
      ~accepted:(match result with `Stopped _ -> 1 | _ -> 0)
      (Option.to_list observed.Obs.Trace.record);
    Obs.Metrics.absorb observed.Obs.Trace.metrics;
    extra engine;
    describe metrics result
  in
  match protocol with
  | `Flood ->
      let engine = Netsim.Engine.create ?churn world Netsim.Flood.protocol in
      Netsim.Flood.start engine ~source;
      run_and_describe engine
        ~until:(fun e -> Netsim.Flood.informed_at e target <> None)
        ~extra:(fun e ->
          match Netsim.Flood.latency e ~source ~target with
          | Some latency -> Printf.printf "flood latency: %d rounds\n" latency
          | None -> ())
  | `Gossip ->
      let engine = Netsim.Engine.create ?churn world Netsim.Gossip.protocol in
      Netsim.Gossip.start engine ~source;
      run_and_describe engine
        ~until:(fun e -> Netsim.Gossip.informed_at e target <> None)
        ~extra:(fun e ->
          Printf.printf "informed nodes: %d\n" (Netsim.Gossip.informed_count e))
  | `Greedy -> (
      match graph.Topology.Graph.distance with
      | None ->
          prerr_endline "greedy simulation needs a topology with a metric";
          1
      | Some metric ->
          let engine =
            Netsim.Engine.create ?churn world
              (Netsim.Greedy_forward.protocol ~target ~metric)
          in
          Netsim.Greedy_forward.start engine ~source;
          run_and_describe engine
            ~until:(fun e -> Netsim.Greedy_forward.arrived e ~target <> None)
            ~extra:(fun e ->
              match Netsim.Greedy_forward.dropped e with
              | Some node -> Printf.printf "token dropped at node %d\n" node
              | None -> ()))
  | `Walk ->
      let engine =
        Netsim.Engine.create ?churn world (Netsim.Random_walk.protocol ~target)
      in
      Netsim.Random_walk.start engine ~source;
      run_and_describe engine
        ~until:(fun e -> Netsim.Random_walk.arrived e ~target <> None)
        ~extra:(fun _ -> ())
  end

let cmd_trace file =
  match
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error message ->
      prerr_endline message;
      1
  | contents -> (
      let lines =
        String.split_on_char '\n' contents
        |> List.filter (fun l -> String.trim l <> "")
      in
      match Obs.Trace.Replay.parse lines with
      | Error message ->
          Printf.eprintf "trace parse error: %s\n" message;
          1
      | Ok runs ->
          let v = Obs.Trace.Replay.check runs in
          Printf.printf "runs: %d\nattempts: %d\naccepted: %d\nchecked: %d\n"
            v.Obs.Trace.Replay.runs v.Obs.Trace.Replay.attempts
            v.Obs.Trace.Replay.accepted v.Obs.Trace.Replay.checked;
          if v.Obs.Trace.Replay.unverifiable > 0 then
            Printf.printf "unverifiable (dropped events): %d\n"
              v.Obs.Trace.Replay.unverifiable;
          List.iter
            (fun (attempt, derived, recorded) ->
              Printf.printf
                "MISMATCH attempt %d: replay derives %d distinct probes, accept \
                 line recorded %d\n"
                attempt derived recorded)
            v.Obs.Trace.Replay.mismatches;
          List.iter
            (fun e -> Printf.printf "COUNT ERROR: %s\n" e)
            v.Obs.Trace.Replay.count_errors;
          if Obs.Trace.Replay.ok v then begin
            print_endline
              "probe accounting: OK — every accepted attempt's distinct-probe \
               count re-derives exactly from its fresh probe events";
            0
          end
          else Verdict.Exit_code.claim_fail)

let cmd_serve manifest queries out evidence_out common =
  match Serve.Session.load ~default_seed:common.seed manifest with
  | Error message ->
      prerr_endline message;
      Verdict.Exit_code.manifest_error
  | Ok session -> (
      with_common ~cmd:"serve" ~outputs:[ out; evidence_out ] common @@ fun () ->
      match Serve.Service.start session with
      | Error message ->
          prerr_endline message;
          Verdict.Exit_code.manifest_error
      | Ok service ->
          let with_input k =
            match queries with
            | None -> Ok (k (Serve.Service.read_lines stdin))
            | Some path -> (
                match
                  In_channel.with_open_bin path (fun ic ->
                      k (Serve.Service.read_lines ic))
                with
                | outcome -> Ok outcome
                | exception Sys_error message -> Error message)
          in
          let run_session read =
            match out with
            | None ->
                let outcome =
                  Serve.Service.serve service ~read ~write:print_string
                in
                flush stdout;
                outcome
            | Some path ->
                Out_channel.with_open_bin path (fun oc ->
                    Serve.Service.serve service ~read
                      ~write:(Out_channel.output_string oc))
          in
          (match with_input run_session with
          | Error message ->
              prerr_endline message;
              Verdict.Exit_code.error
          | Ok { Serve.Service.evidence; overflowed } ->
              Option.iter
                (fun path ->
                  Out_channel.with_open_bin path (fun oc ->
                      Out_channel.output_string oc
                        (Serve.Evidence.to_string evidence)))
                evidence_out;
              if overflowed then begin
                Printf.eprintf
                  "serve: admission cap %s reached, %d query line(s) rejected\n"
                  (match evidence.Serve.Evidence.max_queries with
                  | Some m -> string_of_int m
                  | None -> "?")
                  evidence.Serve.Evidence.rejected;
                Verdict.Exit_code.queue_overflow
              end
              else Verdict.Exit_code.ok))

let cmd_evidence file =
  match Serve.Evidence.load file with
  | Error message ->
      prerr_endline message;
      1
  | Ok evidence -> (
      match Serve.Evidence.validate evidence with
      | Error message ->
          Printf.eprintf "evidence: %s\n" message;
          Verdict.Exit_code.claim_fail
      | Ok () ->
          Printf.printf
            "evidence/v1: session %S, digest %s\n\
             admitted %d, answered %d (malformed %d, errors %d), rejected %d\n\
             probes %d across %d world(s)\n"
            evidence.Serve.Evidence.session
            evidence.Serve.Evidence.config_digest
            evidence.Serve.Evidence.admitted evidence.Serve.Evidence.answered
            evidence.Serve.Evidence.malformed evidence.Serve.Evidence.errors
            evidence.Serve.Evidence.rejected evidence.Serve.Evidence.probes
            (List.length evidence.Serve.Evidence.worlds);
          let claims = Serve.Evidence.claims evidence in
          let failed =
            List.filter
              (fun c -> not (Experiments.Claim.holds c))
              claims
          in
          List.iter
            (fun c ->
              Printf.printf "%-6s %-28s %s (observed %s, want %s)\n"
                (if Experiments.Claim.holds c then "OK" else "FAIL")
                c.Experiments.Claim.id c.Experiments.Claim.description
                (Experiments.Claim.describe_observed c)
                (Experiments.Claim.describe_expected c))
            claims;
          if failed = [] then Verdict.Exit_code.ok
          else Verdict.Exit_code.claim_fail)

(* ------------------------------------------------------------------ *)
(* The obs subcommands: one inspector for every artifact the toolkit
   emits (Obs.Inspect does the sniffing/validation; loading IS schema
   validation, so `obs validate` only reports verdicts).               *)

let cmd_obs_validate files =
  let failed = ref 0 in
  List.iter
    (fun file ->
      match Obs.Inspect.load file with
      | Ok artifact ->
          Printf.printf "%s: ok (%s)\n" file
            (Obs.Inspect.kind_name (Obs.Inspect.kind artifact))
      | Error message ->
          incr failed;
          Printf.printf "INVALID %s\n" message)
    files;
  if !failed = 0 then Verdict.Exit_code.ok else Verdict.Exit_code.claim_fail

let cmd_obs_report files =
  let ppf = Format.std_formatter in
  let loaded =
    List.filter_map
      (fun file ->
        match Obs.Inspect.load file with
        | Ok artifact -> Some (file, artifact)
        | Error message ->
            prerr_endline message;
            None)
      files
  in
  List.iter
    (fun (file, artifact) ->
      if List.length files > 1 then Format.fprintf ppf "== %s ==@." file;
      Obs.Inspect.report ppf artifact)
    loaded;
  (* Several metrics files fold into one cross-run view — the same
     merge the engine itself uses, so the aggregate is exact. *)
  (match
     List.filter (fun (_, a) -> Obs.Inspect.kind a = `Metrics) loaded
   with
  | (_ :: _ :: _ as metrics) ->
      let merged =
        List.fold_left
          (fun acc (_, a) ->
            match acc with
            | Error _ as e -> e
            | Ok acc -> Obs.Inspect.aggregate acc a)
          (Ok (snd (List.hd metrics)))
          (List.tl metrics)
      in
      (match merged with
      | Ok a ->
          Format.fprintf ppf "== aggregate of %d metrics files ==@."
            (List.length metrics);
          Obs.Inspect.report ppf a
      | Error message -> prerr_endline message)
  | _ -> ());
  if List.length loaded = List.length files then Verdict.Exit_code.ok
  else Verdict.Exit_code.claim_fail

let cmd_obs_diff file_a file_b =
  match (Obs.Inspect.load file_a, Obs.Inspect.load file_b) with
  | Error m, _ | _, Error m ->
      prerr_endline m;
      Verdict.Exit_code.claim_fail
  | Ok a, Ok b -> (
      Printf.printf "%s -> %s\n" file_a file_b;
      match Obs.Inspect.diff Format.std_formatter a b with
      | Ok () -> Verdict.Exit_code.ok
      | Error m ->
          prerr_endline m;
          Verdict.Exit_code.error)

let cmd_obs_folded file =
  match Obs.Inspect.load file with
  | Error m ->
      prerr_endline m;
      Verdict.Exit_code.claim_fail
  | Ok artifact -> (
      match Obs.Inspect.folded_of_profile artifact with
      | Ok lines ->
          List.iter print_endline lines;
          Verdict.Exit_code.ok
      | Error m ->
          prerr_endline m;
          Verdict.Exit_code.error)

(* ------------------------------------------------------------------ *)
(* faultroute top: a terminal view over telemetry/v1 heartbeats —
   live (tail the file a serve/campaign run is writing), --replay
   (step through a complete file), or --once (render the newest
   heartbeat and exit; CI snapshot mode). Rendering is Obs.Top; this
   is only tailing, clearing and pacing.                               *)

let cmd_top file replay once interval =
  with_valid_options
    [
      (if Float.is_finite interval && interval >= 0.0 then None
       else
         Some
           (Printf.sprintf
              "--interval must be a non-negative finite number of seconds, got %g"
              interval));
    ]
  @@ fun () ->
  let parse_frames contents =
    String.split_on_char '\n' contents
    |> List.filter (fun l -> String.trim l <> "")
    |> List.filter_map (fun l ->
           match Obs.Top.frame_of_line l with
           | Ok f -> Some f
           | Error _ -> None)
  in
  let total_gaps frames =
    let rec total acc = function
      | a :: (b :: _ as rest) -> total (acc + Obs.Top.gap ~prev:a b) rest
      | _ -> acc
    in
    total 0 frames
  in
  let warn_gaps frames =
    let missing = total_gaps frames in
    if missing > 0 then
      Printf.eprintf "top: %d heartbeat(s) missing (seq gaps)\n" missing
  in
  let read_whole () =
    match In_channel.with_open_bin file In_channel.input_all with
    | contents -> Ok contents
    | exception Sys_error m -> Error m
  in
  let clear () = print_string "\027[2J\027[H" in
  let no_heartbeat () =
    Printf.eprintf "top: no telemetry/v1 heartbeat in %s\n" file;
    Verdict.Exit_code.claim_fail
  in
  if once then
    match read_whole () with
    | Error m ->
        prerr_endline m;
        Verdict.Exit_code.error
    | Ok contents -> (
        let frames = parse_frames contents in
        match List.rev frames with
        | [] -> no_heartbeat ()
        | last :: _ ->
            warn_gaps frames;
            print_string (Obs.Top.render last);
            Verdict.Exit_code.ok)
  else if replay then
    match read_whole () with
    | Error m ->
        prerr_endline m;
        Verdict.Exit_code.error
    | Ok contents -> (
        match parse_frames contents with
        | [] -> no_heartbeat ()
        | frames ->
            List.iter
              (fun f ->
                clear ();
                print_string (Obs.Top.render f);
                flush stdout;
                Unix.sleepf interval)
              frames;
            warn_gaps frames;
            Verdict.Exit_code.ok)
  else begin
    (* Live: tail by byte offset, feeding only complete
       newline-terminated lines to the parser; a shrunken file means
       rotation/truncation, so start over. Runs until interrupted. *)
    let offset = ref 0 in
    let carry = Buffer.create 256 in
    let last = ref None in
    let prev = ref None in
    let missing = ref 0 in
    let poll () =
      match open_in_bin file with
      | exception Sys_error _ -> false
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let len = in_channel_length ic in
              if len < !offset then begin
                offset := 0;
                Buffer.clear carry
              end;
              seek_in ic !offset;
              let fresh = really_input_string ic (len - !offset) in
              offset := len;
              Buffer.add_string carry fresh;
              let rec complete acc = function
                | [] -> (List.rev acc, "")
                | [ tail ] -> (List.rev acc, tail)
                | l :: rest -> complete (l :: acc) rest
              in
              let lines, tail =
                complete [] (String.split_on_char '\n' (Buffer.contents carry))
              in
              Buffer.clear carry;
              Buffer.add_string carry tail;
              let changed = ref false in
              List.iter
                (fun l ->
                  if String.trim l <> "" then
                    match Obs.Top.frame_of_line l with
                    | Ok f ->
                        (match !prev with
                        | Some p -> missing := !missing + Obs.Top.gap ~prev:p f
                        | None -> ());
                        prev := Some f;
                        last := Some f;
                        changed := true
                    | Error _ -> ())
                lines;
              !changed)
    in
    let rec live () =
      (if poll () then
         match !last with
         | Some f ->
             clear ();
             print_string (Obs.Top.render f);
             if !missing > 0 then
               Printf.printf "(%d heartbeat(s) missing)\n" !missing;
             flush stdout
         | None -> ());
      Unix.sleepf interval;
      live ()
    in
    live ()
  end

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring.                                                    *)

open Cmdliner

let seed_arg =
  let doc = "Root random seed (decimal 64-bit)." in
  Arg.(value & opt int64 default_seed & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Shrink sizes and trial counts (smoke-test mode)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let csv_arg =
  let doc = "Emit tables as CSV instead of aligned text." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let trace_arg =
  let doc =
    "Stream a probe-level $(b,trace/v1) JSONL trace to $(docv) (audit it with \
     $(b,faultroute trace))."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write the run's merged $(b,metrics/v1) counters to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let telemetry_arg =
  let doc =
    "Emit $(b,telemetry/v1) heartbeat lines (gauges, pool utilization, \
     latency histograms) on stderr while the run progresses. Telemetry is \
     reporting-layer only: result bytes are identical with it on or off."
  in
  Arg.(value & flag & info [ "telemetry" ] ~doc)

let telemetry_out_arg =
  let doc =
    "Write $(b,telemetry/v1) heartbeat lines to $(docv) instead of stderr \
     (implies $(b,--telemetry))."
  in
  Arg.(
    value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE" ~doc)

let profile_out_arg =
  let doc =
    "Write the hierarchical $(b,profile/v1) span tree to $(docv) at exit \
     (arms wall-clock profiling; inspect with $(b,faultroute obs))."
  in
  Arg.(
    value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Append one $(b,runledger/v1) record for this invocation to $(docv): \
     subcommand, config digest, seed, jobs, wall time, exit code, and the \
     path + content digest of every artifact written. Audit with $(b,faultroute \
     obs validate) — a tampered or stale artifact exits 2."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let strict_shortfall_arg =
  let doc =
    "Exit with status 3 when any report is under-sampled (its attempt cap ran \
     out before the requested trial count)."
  in
  Arg.(value & flag & info [ "strict-shortfall" ] ~doc)

let inject_arg =
  let doc =
    "Install a deterministic fault plan from a compact spec: \
     comma-separated $(b,crash@CHUNK), $(b,stall@CHUNK), \
     $(b,flaky:RATExMAX), $(b,die@CHUNKS), $(b,seed=N) — e.g. \
     $(b,crash@3,flaky:0.02x2,seed=7). Overrides $(b,--fault-plan)."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc)

let fault_plan_arg =
  let doc = "Load a $(b,faultplan/v1) JSON fault plan from $(docv)." in
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"FILE" ~doc)

let checkpoint_arg =
  let doc =
    "Journal every completed chunk to $(docv)/checkpoint.jsonl \
     ($(b,checkpoint/v1)) so an interrupted campaign can be resumed with \
     $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "With $(b,--checkpoint) (required), restore completed chunks from the \
     existing journal instead of truncating it; only missing chunks are \
     recomputed and the report is byte-identical to an uninterrupted run."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let retries_arg =
  let doc =
    "Attempts per trial chunk before it is quarantined, at least 1 (arms the \
     supervised worker pool; default 3 once armed)."
  in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Cooperative per-chunk deadline in seconds, positive and finite: a chunk \
     past its budget is failed and retried (arms the supervised worker pool)."
  in
  Arg.(
    value & opt (some float) None & info [ "chunk-deadline" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for trial running (default: the machine's recommended \
     count). Output is bit-identical for every value."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | Some _ -> Error (`Msg "must be positive")
      | None -> Error (`Msg "not an integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt positive_int (Engine_par.Pool.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* The shared flag records: every subcommand that takes [--seed],
   [--jobs], [--trace], [--metrics-out] or [--strict-shortfall] gets
   all of them from this one term, so names, docs and defaults cannot
   diverge between subcommands. *)
let common_term =
  let make seed jobs trace metrics_out telemetry telemetry_out profile_out
      ledger strict =
    {
      seed;
      jobs;
      trace;
      metrics_out;
      telemetry;
      telemetry_out;
      profile_out;
      ledger;
      strict;
    }
  in
  Term.(
    const make $ seed_arg $ jobs_arg $ trace_arg $ metrics_arg $ telemetry_arg
    $ telemetry_out_arg $ profile_out_arg $ ledger_arg $ strict_shortfall_arg)

let supervision_term =
  let make inject fault_plan checkpoint resume retries deadline =
    { inject; fault_plan; checkpoint; resume; retries; deadline }
  in
  Term.(
    const make $ inject_arg $ fault_plan_arg $ checkpoint_arg $ resume_arg
    $ retries_arg $ deadline_arg)

let topology_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TOPOLOGY"
        ~doc:"Topology spec: NAME or NAME:SIZE (see `faultroute list`).")

let size_arg =
  Arg.(
    value & opt int 10
    & info [ "size"; "n" ] ~docv:"N"
        ~doc:
          "Topology size parameter (dimension, depth, side or vertex count) when \
           the spec carries none.")

let p_arg =
  Arg.(
    value & opt float 0.6
    & info [ "p" ] ~docv:"P" ~doc:"Edge retention probability, in [0, 1].")

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List experiments, topologies and routers.")
    Term.(const cmd_list $ const ())

let exp_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id, e.g. E1.")
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run one experiment and print its report.")
    Term.(const cmd_exp $ id_arg $ quick_arg $ csv_arg $ common_term
          $ supervision_term)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in the catalog.")
    Term.(const cmd_all $ quick_arg $ common_term $ supervision_term)

let check_cmd =
  let baseline_arg =
    let doc =
      "Baseline file to compare against (default: verdicts/baseline.json in \
       --quick mode, verdicts/baseline-full.json otherwise)."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the $(b,verdict/v1) JSON report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let update_arg =
    let doc =
      "Rewrite the baseline from this run's observed values instead of \
       comparing (refused if any claim fails)."
    in
    Arg.(value & flag & info [ "update" ] ~doc)
  in
  let evidence_arg =
    let doc =
      "Also gate on a serve session's $(b,evidence/v1) summary: the file must \
       load, validate, and its claims (answered = admitted, outcome \
       accounting, single construction, no overflow) join the evaluated set. \
       Repeatable."
    in
    Arg.(
      value & opt_all string [] & info [ "evidence" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run every experiment and evaluate its machine-checked claims: exit 0 \
          when all claims hold and match the committed baseline, 2 on a failed \
          claim, 4 on drift (values moved while the claim still holds).")
    Term.(
      const cmd_check $ quick_arg $ baseline_arg $ out_arg $ update_arg
      $ evidence_arg $ common_term $ supervision_term)

let route_cmd =
  let source_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "source" ] ~docv:"U" ~doc:"Source vertex (default 0).")
  in
  let target_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "target" ] ~docv:"V" ~doc:"Target vertex (default |V|-1).")
  in
  let router_arg =
    Arg.(
      value & opt string "bfs"
      & info [ "router" ] ~docv:"ROUTER"
          ~doc:"Routing algorithm (see `faultroute list`).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"B" ~doc:"Distinct-probe budget, at least 1.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Run one routing attempt on one percolated world.")
    Term.(
      const cmd_route $ topology_arg $ size_arg $ p_arg $ source_arg
      $ target_arg $ router_arg $ budget_arg $ common_term)

let census_cmd =
  Cmd.v
    (Cmd.info "census" ~doc:"Component census of one percolated world.")
    Term.(const cmd_census $ topology_arg $ size_arg $ p_arg $ seed_arg)

let threshold_cmd =
  let trials_arg =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"T" ~doc:"Worlds per bisection pivot, at least 1.")
  in
  Cmd.v
    (Cmd.info "threshold" ~doc:"Estimate a giant-component threshold by bisection.")
    Term.(const cmd_threshold $ topology_arg $ size_arg $ seed_arg $ jobs_arg $ trials_arg)

let simulate_cmd =
  let protocol_arg =
    Arg.(
      value & opt string "flood"
      & info [ "protocol" ] ~docv:"PROTO" ~doc:"flood, gossip, greedy or walk.")
  in
  let source_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "source" ] ~docv:"U" ~doc:"Source node (default 0).")
  in
  let target_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "target" ] ~docv:"V" ~doc:"Target node (default |V|-1).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 10_000
      & info [ "max-rounds" ] ~docv:"R" ~doc:"Round limit.")
  in
  let exact_rounds_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Step exactly $(docv) rounds, printing a per-round delivery \
             summary (stops early once the target is reached).")
  in
  let churn_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "churn" ] ~docv:"SPEC"
          ~doc:
            "Link churn plan, $(b,fail=RATE[,repair=RATE][,seed=N]): links \
             fail and repair mid-run with geometric sojourn times.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a message-passing protocol on one percolated world.")
    Term.(
      const cmd_simulate $ topology_arg $ size_arg $ p_arg $ protocol_arg
      $ source_arg $ target_arg $ rounds_arg $ exact_rounds_arg $ churn_arg
      $ common_term)

let serve_cmd =
  let manifest_arg =
    let doc = "The $(b,session/v1) manifest: worlds, limits, query mix." in
    Arg.(
      required
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let queries_arg =
    let doc =
      "Replay newline-delimited JSON queries from $(docv) instead of stdin."
    in
    Arg.(value & opt (some string) None & info [ "queries" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write answer lines to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let evidence_arg =
    let doc =
      "Write the session's $(b,evidence/v1) summary to $(docv) (gate it with \
       $(b,faultroute check --evidence))."
    in
    Arg.(
      value & opt (some string) None & info [ "evidence-out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Load a session/v1 manifest into resident worlds (each distinct world \
          built exactly once) and answer newline-delimited JSON queries \
          (route, reveal, cluster, stats) from stdin or a replay file, \
          sharding batches across worker domains. Answers, evidence and \
          trace bytes are identical for every --jobs value. Exit 6 on a \
          manifest error, 7 when the admission cap rejected queries.")
    Term.(
      const cmd_serve $ manifest_arg $ queries_arg $ out_arg $ evidence_arg
      $ common_term)

let evidence_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"An evidence/v1 summary written by serve --evidence-out.")
  in
  Cmd.v
    (Cmd.info "evidence"
       ~doc:
         "Validate an evidence/v1 summary: schema, internal accounting, and \
          its machine-checkable claims. Exit 2 when any check fails.")
    Term.(const cmd_evidence $ file_arg)

let trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A trace/v1 JSONL file written by --trace.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a trace/v1 JSONL file: re-derive each accepted attempt's \
          distinct-probe count from its fresh probe events and check it against \
          the recorded count.")
    Term.(const cmd_trace $ file_arg)

let obs_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Observability artifacts: trace/v1, metrics/v1, profile/v1, \
             telemetry/v1, runledger/v1, or bench_percolation history files \
             (sniffed by schema tag).")
  in
  let file_a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BEFORE" ~doc:"Baseline artifact.")
  in
  let file_b_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"AFTER" ~doc:"Artifact to compare against BEFORE.")
  in
  let profile_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A profile/v1 file written by --profile-out.")
  in
  let validate =
    Cmd.v
      (Cmd.info "validate"
         ~doc:
           "Schema-validate artifacts (traces are also replay-checked; run \
            ledgers are cross-checked against the artifacts on disk, so a \
            tampered or stale artifact fails). Exit 2 if any file is \
            invalid.")
      Term.(const cmd_obs_validate $ files_arg)
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Pretty-print artifacts: counters/gauges, per-domain pool \
            utilization, latency percentiles, span trees, replay verdicts. \
            Several metrics/v1 files are additionally aggregated into one \
            merged view.")
      Term.(const cmd_obs_report $ files_arg)
  in
  let diff =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Diff two artifacts of the same kind: counter/gauge/histogram \
            deltas, significant span movement, or bench regressions.")
      Term.(const cmd_obs_diff $ file_a_arg $ file_b_arg)
  in
  let folded =
    Cmd.v
      (Cmd.info "folded"
         ~doc:
           "Print flamegraph folded-stack lines (span;path self-us) from a \
            profile/v1 file — pipe into standard flamegraph tooling.")
      Term.(const cmd_obs_folded $ profile_arg)
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Inspect observability artifacts: validate, pretty-print, \
          aggregate and diff the \
          trace/metrics/profile/telemetry/ledger/bench family.")
    [ validate; report; diff; folded ]

let top_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A telemetry/v1 heartbeat file (written by \
             $(b,--telemetry-out)).")
  in
  let replay_arg =
    let doc =
      "The file is complete: step through every heartbeat and exit instead \
       of tailing."
    in
    Arg.(value & flag & info [ "replay" ] ~doc)
  in
  let once_arg =
    let doc =
      "Render the newest heartbeat once and exit — a CI snapshot. Exit 2 \
       when the file holds no parseable heartbeat."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval_arg =
    let doc = "Seconds between redraws (live) or replayed frames." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a telemetry/v1 heartbeat file: run progress, \
          per-domain pool utilization and GC pressure, and per-op latency \
          percentiles, redrawn as the producing run heartbeats. Tails the \
          file until interrupted; see $(b,--replay) and $(b,--once) for \
          post-hoc use.")
    Term.(const cmd_top $ file_arg $ replay_arg $ once_arg $ interval_arg)

let mincut_cmd =
  let source_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "source" ] ~docv:"U" ~doc:"Source vertex (default 0).")
  in
  let target_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "target" ] ~docv:"V" ~doc:"Target vertex (default |V|-1).")
  in
  Cmd.v
    (Cmd.info "mincut" ~doc:"Edge connectivity and a minimum cut of a vertex pair.")
    Term.(const cmd_mincut $ topology_arg $ size_arg $ seed_arg $ source_arg $ target_arg)

let () =
  let info =
    Cmd.info "faultroute" ~version:"1.0.0"
      ~doc:"Routing complexity of faulty networks — reproduction toolkit"
  in
  let group =
    Cmd.group info
      [
        list_cmd;
        exp_cmd;
        all_cmd;
        check_cmd;
        route_cmd;
        census_cmd;
        threshold_cmd;
        simulate_cmd;
        mincut_cmd;
        serve_cmd;
        evidence_cmd;
        trace_cmd;
        obs_cmd;
        top_cmd;
      ]
  in
  let code = Cmd.eval' group in
  (* The ledger record carries the exit code and digests of the final
     artifact bytes, so it is appended here — after every
     with_observability finally has flushed and closed its sinks. *)
  Obs.Ledger.finalize ~exit_code:code;
  exit code
