type spec = {
  graph : Topology.Graph.t;
  p : float;
  source : int;
  target : int;
  router : Prng.Stream.t -> source:int -> target:int -> Routing.Router.t;
  budget : int option;
  reveal_limit : int option;
}

let spec ?budget ?reveal_limit ~graph ~p ~source ~target router =
  { graph; p; source; target; router; budget; reveal_limit }

type result = {
  observations : Stats.Censored.t;
  connection : Stats.Proportion.t;
  path_lengths : Stats.Summary.t;
  chemical_distances : Stats.Summary.t;
  failures : int;
  requested : int;
  metrics : Obs.Metrics.snapshot;
}

let shortfall result = result.requested - Stats.Censored.count result.observations

let shortfall_note ~label result =
  let missing = shortfall result in
  if missing = 0 then None
  else
    Some
      (Printf.sprintf
         "%s: %s — only %d of %d requested conditioned trials \
          measured (shortfall %d); treat the statistics as under-sampled."
         label Report.shortfall_marker
         (Stats.Censored.count result.observations)
         result.requested missing)

(* ------------------------------------------------------------------ *)
(* One attempt.

   Everything random about attempt [i] — the percolation world, and any
   random choices the router makes — derives from [Stream.split root i],
   a pure function of the root seed. Attempts are therefore computable
   in any order on any domain with identical results; the seed equals
   [Coin.derive root i], the same world the historical sequential
   runner drew.

   Observability is strictly out-of-band: trace events and metric ticks
   land in the per-attempt buffers {!Obs.Trace.observe} installs around
   this function; nothing here reads them back, so enabling
   instrumentation cannot change any computed value. *)

type attempt =
  | Rejected  (** World not connected (or reveal limit hit): resampled. *)
  | Accepted of { distance : int; outcome : Routing.Outcome.t }

let run_attempt spec root_stream index =
  let attempt_stream = Prng.Stream.split root_stream index in
  let seed = Prng.Stream.seed attempt_stream in
  let world = Percolation.World.create spec.graph ~p:spec.p ~seed in
  let metered = Obs.Metrics.on () in
  if metered then Obs.Metrics.tick "trial.attempts";
  let reveal () =
    Percolation.Reveal.connected ?limit:spec.reveal_limit world spec.source
      spec.target
  in
  let verdict =
    if Obs.Timing.on () then Obs.Timing.span "trial.reveal" reveal else reveal ()
  in
  match verdict with
  | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown ->
      Percolation.Reveal.trace_verdict verdict ~probes:0;
      if metered then
        Obs.Metrics.tick
          (if verdict = Percolation.Reveal.Disconnected then
             "trial.rejects.disconnected"
           else "trial.rejects.reveal_limit");
      Rejected
  | Percolation.Reveal.Connected distance ->
      let router =
        spec.router attempt_stream ~source:spec.source ~target:spec.target
      in
      let outcome =
        Routing.Router.run ?budget:spec.budget router world ~source:spec.source
          ~target:spec.target
      in
      Percolation.Reveal.trace_verdict verdict
        ~probes:(Routing.Outcome.probes outcome);
      if metered then begin
        Obs.Metrics.tick "trial.accepts";
        Obs.Metrics.record "trial.probes" (Routing.Outcome.probes outcome);
        Obs.Metrics.record "trial.chemical_distance" distance;
        Obs.Metrics.tick
          (match outcome with
          | Routing.Outcome.Found _ -> "trial.outcome.found"
          | Routing.Outcome.No_path _ -> "trial.outcome.no_path"
          | Routing.Outcome.Budget_exceeded _ -> "trial.outcome.budget_exceeded")
      end;
      Accepted { distance; outcome }

(* A cell is an attempt plus whatever it emitted ({!Obs.Trace.observe}). *)
type cell = attempt Obs.Trace.observed

(* ------------------------------------------------------------------ *)
(* Chunk accumulators.

   The attempts of each chunk fold into their own [acc], and chunk
   accumulators merge in chunk-index order, so the merged value never
   depends on which domain computed what. Metric snapshots ride the
   same fold: integer-only merges are commutative anyway, but keeping
   them on the accumulator path means the merged snapshot follows the
   exact chunk discipline of the statistics. *)

type acc = {
  observations : Stats.Censored.t;
  path_lengths : Stats.Summary.t;
  chemical : Stats.Summary.t;
  accepted : int;
  failures : int;
  metrics : Obs.Metrics.snapshot;
}

let acc_empty =
  {
    observations = Stats.Censored.empty;
    path_lengths = Stats.Summary.empty;
    chemical = Stats.Summary.empty;
    accepted = 0;
    failures = 0;
    metrics = Obs.Metrics.empty;
  }

let acc_add acc (cell : cell) =
  let acc = { acc with metrics = Obs.Metrics.merge acc.metrics cell.metrics } in
  match cell.value with
  | Rejected -> acc
  | Accepted { distance; outcome } ->
      let observations =
        Stats.Censored.add acc.observations (Routing.Outcome.to_observation outcome)
      in
      let chemical = Stats.Summary.add acc.chemical (float_of_int distance) in
      let path_lengths, failures =
        match outcome with
        | Routing.Outcome.Found { path; _ } ->
            ( Stats.Summary.add acc.path_lengths
                (float_of_int (List.length path - 1)),
              acc.failures )
        | Routing.Outcome.No_path _ -> (acc.path_lengths, acc.failures + 1)
        | Routing.Outcome.Budget_exceeded _ -> (acc.path_lengths, acc.failures)
      in
      { acc with observations; path_lengths; chemical; accepted = acc.accepted + 1; failures }

let acc_merge a b =
  {
    observations = Stats.Censored.merge a.observations b.observations;
    path_lengths = Stats.Summary.merge a.path_lengths b.path_lengths;
    chemical = Stats.Summary.merge a.chemical b.chemical;
    accepted = a.accepted + b.accepted;
    failures = a.failures + b.failures;
    metrics = Obs.Metrics.merge a.metrics b.metrics;
  }

(* ------------------------------------------------------------------ *)
(* Checkpoint cells. Compact single-letter tags — a journal line per
   chunk at every chunk of a long campaign adds up. A Found path is
   stored as its hop count only and reconstructed as a synthetic
   0..hops vertex list: the accumulator fold consumes nothing but the
   length, and pretending otherwise would bloat every line with a full
   path. A restored cell carries no trace record and empty metrics. *)

let attempt_to_json = function
  | Rejected -> Obs.Json.Obj [ ("t", Obs.Json.String "r") ]
  | Accepted { distance; outcome } -> (
      match outcome with
      | Routing.Outcome.Found { path; probes; raw_probes } ->
          Obs.Json.Obj
            [
              ("t", Obs.Json.String "f");
              ("d", Obs.Json.Int distance);
              ("p", Obs.Json.Int probes);
              ("rp", Obs.Json.Int raw_probes);
              ("h", Obs.Json.Int (List.length path - 1));
            ]
      | Routing.Outcome.No_path { probes } ->
          Obs.Json.Obj
            [
              ("t", Obs.Json.String "n");
              ("d", Obs.Json.Int distance);
              ("p", Obs.Json.Int probes);
            ]
      | Routing.Outcome.Budget_exceeded { probes } ->
          Obs.Json.Obj
            [
              ("t", Obs.Json.String "b");
              ("d", Obs.Json.Int distance);
              ("p", Obs.Json.Int probes);
            ])

let attempt_of_json json =
  let int_field name = Option.bind (Obs.Json.member name json) Obs.Json.to_int in
  match Option.bind (Obs.Json.member "t" json) Obs.Json.to_str with
  | Some "r" -> Some Rejected
  | Some "f" -> (
      match (int_field "d", int_field "p", int_field "rp", int_field "h") with
      | Some d, Some p, Some rp, Some h when h >= 0 ->
          let path = List.init (h + 1) Fun.id in
          Some
            (Accepted
               {
                 distance = d;
                 outcome = Routing.Outcome.Found { path; probes = p; raw_probes = rp };
               })
      | _ -> None)
  | Some "n" -> (
      match (int_field "d", int_field "p") with
      | Some d, Some p ->
          Some (Accepted { distance = d; outcome = Routing.Outcome.No_path { probes = p } })
      | _ -> None)
  | Some "b" -> (
      match (int_field "d", int_field "p") with
      | Some d, Some p ->
          Some
            (Accepted
               { distance = d; outcome = Routing.Outcome.Budget_exceeded { probes = p } })
      | _ -> None)
  | _ -> None

let codec =
  {
    Checkpoint.to_json = (fun (cell : cell) -> attempt_to_json cell.value);
    of_json =
      (fun json ->
        Option.map
          (fun value -> { Obs.Trace.value; record = None; metrics = Obs.Metrics.empty })
          (attempt_of_json json));
  }

(* ------------------------------------------------------------------ *)
(* The engine.

   Attempt [i] is index [i - 1] of a {!Runner} over 1..max_attempts, so
   the attempt space is cut into Runner's fixed chunks, with a quota of
   [trials] acceptances: on the sequential path the runner computes no
   attempt past the [trials]-th acceptance, and on the parallel path it
   stops dispensing once the completed chunks hold [trials]. A final
   ordered scan folds each chunk into its own accumulator, merges whole
   chunks in chunk order, and replays the boundary chunk attempt by
   attempt up to the exact attempt of the [trials]-th acceptance, so
   parallel overshoot is cut there. A quarantined chunk is dropped from
   the merge: its attempts never happened as far as the statistics are
   concerned, and the CLI surfaces the loss via the faults summary and
   exit code.

   Tracing rides the same machinery: each attempt's events are captured
   into its cell on whatever domain computed it, and the final ordered
   scan — plain sequential code on the caller's domain — hands exactly
   the used attempts' records to {!Obs.Trace.write_run}, which writes
   the whole run to the sink in a single call. The trace bytes therefore cannot
   depend on the job count, and runs from concurrent Trial calls cannot
   interleave. *)

let policy_string = function
  | Percolation.Oracle.Local -> "local"
  | Percolation.Oracle.Unrestricted -> "unrestricted"

let trace_header spec stream ~trials ~max_attempts =
  (* Split 0 is reserved: attempts use 1..max_attempts, so building a
     throwaway router here cannot correlate with any attempt's coins. *)
  let router =
    spec.router (Prng.Stream.split stream 0) ~source:spec.source ~target:spec.target
  in
  [
    ("graph", Obs.Json.String spec.graph.Topology.Graph.name);
    ("p", Obs.Json.Float spec.p);
    ("source", Obs.Json.Int spec.source);
    ("target", Obs.Json.Int spec.target);
    ("router", Obs.Json.String router.Routing.Router.name);
    ("policy", Obs.Json.String (policy_string router.Routing.Router.policy));
    ( "budget",
      match spec.budget with Some b -> Obs.Json.Int b | None -> Obs.Json.Null );
    ( "reveal_limit",
      match spec.reveal_limit with
      | Some l -> Obs.Json.Int l
      | None -> Obs.Json.Null );
    ("trials", Obs.Json.Int trials);
    ("max_attempts", Obs.Json.Int max_attempts);
  ]

let checkpoint_key spec stream ~trials ~max_attempts =
  (* Everything a chunk's cells depend on — and nothing they don't (the
     job count shapes scheduling, never results, so resuming under a
     different [--jobs] must hit). The probe router from reserved
     split 0 names the router family, as in the trace header. *)
  let router =
    spec.router (Prng.Stream.split stream 0) ~source:spec.source
      ~target:spec.target
  in
  let opt = function Some v -> string_of_int v | None -> "none" in
  Printf.sprintf
    "graph=%s;p=%.17g;source=%d;target=%d;router=%s;policy=%s;budget=%s;reveal_limit=%s;seed=%Ld;trials=%d;max_attempts=%d;chunk=%d"
    spec.graph.Topology.Graph.name spec.p spec.source spec.target
    router.Routing.Router.name
    (policy_string router.Routing.Router.policy)
    (opt spec.budget) (opt spec.reveal_limit)
    (Prng.Stream.seed stream) trials max_attempts Runner.chunk_size

let run ?jobs stream ~trials ?max_attempts spec =
  if trials <= 0 then invalid_arg "Trial.run: trials must be positive";
  let max_attempts = Option.value max_attempts ~default:(100 * trials) in
  let accepted (cell : cell) =
    match cell.value with Accepted _ -> true | Rejected -> false
  in
  let chunks, faults =
    Runner.run ?jobs
      ~key:(lazy (checkpoint_key spec stream ~trials ~max_attempts))
      ~codec ~count:max_attempts ~quota:(trials, accepted)
      (fun i ->
        Obs.Trace.observe ~index:(i + 1) (fun () -> run_attempt spec stream (i + 1)))
  in
  (* Ordered truncation: merge whole chunks while they cannot contain
     the [trials]-th acceptance, then replay the boundary chunk. *)
  let tracing = Obs.Trace.on () in
  let traces = ref [] in
  let push_trace (cell : cell) =
    match cell.record with Some r -> traces := r :: !traces | None -> ()
  in
  let final = ref acc_empty in
  let attempts_used = ref 0 in
  (try
     Array.iter
       (Option.iter (fun cells ->
            let acc = Array.fold_left acc_add acc_empty cells in
            if !final.accepted + acc.accepted < trials then begin
              final := acc_merge !final acc;
              attempts_used := !attempts_used + Array.length cells;
              if tracing then Array.iter push_trace cells
            end
            else
              Array.iter
                (fun cell ->
                  final := acc_add !final cell;
                  incr attempts_used;
                  if tracing then push_trace cell;
                  if !final.accepted >= trials then raise Exit)
                cells))
       chunks
   with Exit -> ());
  let final = !final in
  if tracing then
    Obs.Trace.write_run
      ~header:(trace_header spec stream ~trials ~max_attempts)
        (* Supervision events ride the trace as run-level lines: sorted
           by (chunk, attempt), so their bytes are schedule-independent
           too. *)
      ~run_lines:
        (List.map
           (fun (f : Engine_par.Supervisor.failure) ->
             Obs.Trace.fault_line ~chunk:f.chunk ~attempt:f.attempt
               ~kind:(Engine_par.Supervisor.kind_string f.kind))
           faults.Engine_par.Supervisor.failures)
      ~attempts:!attempts_used ~accepted:final.accepted (List.rev !traces);
  if Obs.Metrics.on () then Obs.Metrics.absorb final.metrics;
  {
    observations = final.observations;
    connection =
      Stats.Proportion.make ~successes:final.accepted ~trials:!attempts_used;
    path_lengths = final.path_lengths;
    chemical_distances = final.chemical;
    failures = final.failures;
    requested = trials;
    metrics = final.metrics;
  }

let median_observation (result : result) = Stats.Censored.median result.observations

let mean_probes_lower_bound (result : result) =
  Stats.Censored.mean_lower_bound result.observations
