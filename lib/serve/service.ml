module J = Obs.Json

type resident = {
  wspec : Session.world_spec;
  instance : Topology.Registry.instance;
  world : Percolation.World.t;
  constructed : bool;  (* false when an earlier entry built the same world *)
}

type t = {
  sess : Session.t;
  residents : resident list;  (* manifest order *)
  by_id : (string, resident) Hashtbl.t;
  root : Prng.Stream.t;
}

let session t = t.sess

let start (sess : Session.t) =
  (* Each distinct world is built and prefilled once. Graph names are
     unique per family and parameters (the registries guarantee it) and
     the graph is a function of (topology, seed), so the name stands in
     for the graph in the key. *)
  let worlds = Hashtbl.create 16 in
  let build (w : Session.world_spec) =
    match Topology.Registry.of_spec w.Session.topology with
    | Error e -> Error (Printf.sprintf "world %S: %s" w.Session.wid e)
    | Ok spec -> (
        let size = Option.value spec.Topology.Registry.size ~default:0 in
        let stream = Prng.Stream.split (Prng.Stream.create w.Session.seed) 0 in
        match Topology.Registry.build spec ~default_size:size stream with
        | exception Invalid_argument m ->
            Error (Printf.sprintf "world %S: %s" w.Session.wid m)
        | instance -> (
            let graph = instance.Topology.Registry.graph in
            let key =
              ( graph.Topology.Graph.name,
                w.Session.p,
                w.Session.site_p,
                w.Session.seed )
            in
            match Hashtbl.find_opt worlds key with
            | Some world -> Ok { wspec = w; instance; world; constructed = false }
            | None ->
                let world =
                  Percolation.World.create ?site_p:w.Session.site_p graph
                    ~p:w.Session.p ~seed:w.Session.seed
                in
                Percolation.World.prefill world;
                Hashtbl.replace worlds key world;
                Ok { wspec = w; instance; world; constructed = true }))
  in
  let rec build_all acc = function
    | [] -> Ok (List.rev acc)
    | w :: rest -> (
        match build w with
        | Error _ as e -> e
        | Ok r -> build_all (r :: acc) rest)
  in
  match build_all [] sess.Session.worlds with
  | Error e -> Error e
  | Ok residents ->
      let by_id = Hashtbl.create 16 in
      List.iter (fun r -> Hashtbl.replace by_id r.wspec.Session.wid r) residents;
      Ok { sess; residents; by_id; root = Prng.Stream.create sess.Session.seed }

(* ------------------------------------------------------------------ *)
(* Per-query evaluation — pure in (session, qindex, item), runs on
   worker domains. Resident worlds are prefilled, so reads are
   write-free; everything else is query-local. *)

type item = Bad of { qid : J.t; error : string } | Ask of Query.t

type acct = {
  ok_world : string option;  (* counted world, ok answers only *)
  op : string;  (* query-type label for latency telemetry *)
  outcome : string;  (* one of Evidence.outcome_keys *)
  probes : int;
  accepted : bool;  (* emitted a trace Accept terminal *)
  record : Obs.Trace.record option;
  metrics : Obs.Metrics.snapshot;
  elapsed_ns : float;  (* reporting-layer only; 0 when telemetry is off *)
}

let silent_acct ~op outcome =
  {
    ok_world = None;
    op;
    outcome;
    probes = 0;
    accepted = false;
    record = None;
    metrics = Obs.Metrics.empty;
    elapsed_ns = 0.;
  }

let json_opt = function None -> J.Null | Some s -> J.String s

let error_answer ~qid ~op ~world ~outcome msg =
  J.to_string
    (J.Obj
       [
         ("id", qid); ("op", op); ("world", world); ("ok", J.Bool false);
         ("outcome", J.String outcome); ("error", J.String msg);
       ])
  ^ "\n"

let ok_answer ~qid ~op ~world fields =
  J.to_string
    (J.Obj
       ([ ("id", qid); ("op", J.String op); ("world", world);
          ("ok", J.Bool true) ]
       @ fields))
  ^ "\n"

(* What an evaluated query answers: its outcome key, the answer fields
   after it, the probes it counts and whether its trace attempt ends
   in [accept]. *)
type answer = {
  key : string;
  fields : (string * J.t) list;
  probes : int;
  accepted : bool;
}

let answer ?(probes = 0) ?(accepted = false) key fields =
  Ok { key; fields; probes; accepted }

(* Validate a query and return its resident world and the work to
   observe. Every check runs here, before the work is observed, so an
   invalid query emits no attempt lines; the work emits its own
   terminal trace event, and an invalid route it returns is still an
   observed attempt. *)
let prepare t ~qindex (q : Query.t) =
  let ( let* ) = Result.bind in
  let opn = Query.op_name q.Query.op in
  let resident () =
    match q.Query.world with
    | None -> Error "missing \"world\""
    | Some wid -> (
        match Hashtbl.find_opt t.by_id wid with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "unknown world %S" wid))
  in
  let check r name v =
    let n = r.instance.Topology.Registry.graph.Topology.Graph.vertex_count in
    if v < n then Ok ()
    else
      Error (Printf.sprintf "%s %d out of range (world has %d vertices)" name v n)
  in
  let with_default = function
    | Some _ as limit -> limit
    | None -> t.sess.Session.limits.Session.reveal_limit
  in
  if not (Session.allows t.sess opn) then
    Error (Printf.sprintf "op %S is not in the session query mix" opn)
  else
    match q.Query.op with
    | Query.Stats ->
        (* Valid stats queries are answered sequentially by the serve
           loop; reaching here means the mix allowed it but the loop
           did not intercept — a service bug, answered
           (deterministically) rather than asserted. *)
        Error "stats queries are answered by the session loop"
    | Query.Route { source; target; router; budget } ->
        let* r = resident () in
        let* () = check r "source" source in
        let* () = check r "target" target in
        let* entry = Routing.Registry.of_spec router in
        let* router_t =
          entry.Routing.Registry.build ~instance:r.instance ~source ~target
            (Prng.Stream.split t.root qindex)
        in
        Ok
          ( r,
            fun () ->
              match Routing.Router.run ?budget router_t r.world ~source ~target with
              | exception Routing.Router.Invalid_route { router; _ } ->
                  Error (Printf.sprintf "router %S returned an invalid route" router)
              | Routing.Outcome.Found { path; probes; _ } ->
                  let distance = List.length path - 1 in
                  if Obs.Trace.on () then
                    Obs.Trace.emit (Obs.Trace.Accept { distance; probes });
                  answer ~probes ~accepted:true "found"
                    [ ("probes", J.Int probes); ("path_len", J.Int distance) ]
              | Routing.Outcome.No_path { probes } ->
                  if Obs.Trace.on () then
                    Obs.Trace.emit
                      (Obs.Trace.Reject { reason = Obs.Trace.Disconnected });
                  answer ~probes "no_path" [ ("probes", J.Int probes) ]
              | Routing.Outcome.Budget_exceeded { probes } ->
                  answer ~probes "budget_exceeded" [ ("probes", J.Int probes) ] )
    | Query.Reveal { source; target; limit } ->
        let* r = resident () in
        let* () = check r "source" source in
        let* () = check r "target" target in
        let limit = with_default limit in
        Ok
          ( r,
            fun () ->
              let verdict =
                Percolation.Reveal.connected ?limit r.world source target
              in
              Percolation.Reveal.trace_verdict verdict ~probes:0;
              match verdict with
              | Percolation.Reveal.Connected d ->
                  answer ~accepted:true "connected" [ ("distance", J.Int d) ]
              | Percolation.Reveal.Disconnected -> answer "disconnected" []
              | Percolation.Reveal.Unknown -> answer "unknown" [] )
    | Query.Cluster { vertex; limit } ->
        let* r = resident () in
        let* () = check r "vertex" vertex in
        let limit = with_default limit in
        Ok
          ( r,
            fun () ->
              let size, truncated =
                Percolation.Reveal.cluster_size ?limit r.world vertex
              in
              answer "cluster"
                [ ("size", J.Int size); ("truncated", J.Bool truncated) ] )

let eval_item t ~qindex item =
  match item with
  | Bad { qid; error } ->
      ( error_answer ~qid ~op:J.Null ~world:J.Null ~outcome:"malformed" error,
        silent_acct ~op:"malformed" "malformed" )
  | Ask q -> (
      let qid = q.Query.qid in
      let opn = Query.op_name q.Query.op in
      let wfield = json_opt q.Query.world in
      let fail msg =
        ( error_answer ~qid ~op:(J.String opn) ~world:wfield ~outcome:"error"
            msg,
          silent_acct ~op:opn "error" )
      in
      match prepare t ~qindex q with
      | Error msg -> fail msg
      | Ok (r, work) -> (
          let observed =
            Obs.Trace.observe ~index:qindex (fun () ->
                if Obs.Trace.on () then
                  Obs.Trace.emit
                    (Obs.Trace.Query_span { q = qindex; stage = Obs.Trace.Execute });
                work ())
          in
          let record = observed.Obs.Trace.record in
          let metrics = observed.Obs.Trace.metrics in
          match observed.Obs.Trace.value with
          | Error msg ->
              let line, acct = fail msg in
              (line, { acct with record; metrics })
          | Ok a ->
              ( ok_answer ~qid ~op:opn ~world:wfield
                  (("outcome", J.String a.key) :: a.fields),
                {
                  ok_world = Some r.wspec.Session.wid;
                  op = opn;
                  outcome = a.key;
                  probes = a.probes;
                  accepted = a.accepted;
                  record;
                  metrics;
                  elapsed_ns = 0.;
                } )))

(* Latency measurement wraps the whole evaluation, workers each timing
   their own queries. The reading rides along in the acct and is only
   {e consumed} sequentially at tally time, so it never touches answer
   bytes; when telemetry is off the clock is never read. *)
let eval t ~qindex item =
  if Obs.Telemetry.on () then begin
    let t0 = Unix.gettimeofday () in
    let line, acct = eval_item t ~qindex item in
    (line, { acct with elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 })
  end
  else eval_item t ~qindex item

(* ------------------------------------------------------------------ *)
(* The session loop: admit, batch, flush through the pool, tally in
   admission order. *)

type outcome = { evidence : Evidence.t; overflowed : bool }

let read_lines channel () = In_channel.input_line channel

let qid_of_bad_line line =
  match J.of_string line with
  | Ok (J.Obj _ as json) -> Option.value (J.member "id" json) ~default:J.Null
  | _ -> J.Null

let serve ?jobs t ~read ~write =
  let sess = t.sess in
  let capacity = sess.Session.limits.Session.queue in
  let traced = Obs.Trace.on () in
  let metered = Obs.Metrics.on () in
  let telemetered = Obs.Telemetry.on () in
  (* Probe-count distribution over route answers, kept in a local
     always-on registry: the [stats] reply quotes its quantiles, so it
     must exist (and be bit-identical) whether or not [--metrics-out]
     or telemetry is armed. Integer histogram + admission-order feeding
     = jobs-invariant. *)
  let probe_hist = Obs.Metrics.create () in
  (* Sequential tally state — admission-order, shared by flush/stats. *)
  let admitted = ref 0 and answered = ref 0 and rejected = ref 0 in
  let malformed = ref 0 and errors = ref 0 and probes = ref 0 in
  let attempts = ref 0 and accepted = ref 0 in
  let outcome_counts = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace outcome_counts k 0) Evidence.outcome_keys;
  let world_tallies = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace world_tallies r.wspec.Session.wid (ref 0, ref 0))
    t.residents;
  let metrics_acc = ref Obs.Metrics.empty in
  if traced then
    Obs.Trace.write_line
      (Obs.Trace.header_line
         [
           ("kind", J.String "serve");
           ("session", J.String sess.Session.name);
           ("digest", J.String (Session.digest sess));
           ("seed", J.String (Int64.to_string sess.Session.seed));
           ("worlds", J.Int (List.length t.residents));
           ("queue", J.Int capacity);
         ]);
  let tally ~qindex (line, acct) trace_buffer =
    write line;
    incr answered;
    Hashtbl.replace outcome_counts acct.outcome
      (Hashtbl.find outcome_counts acct.outcome + 1);
    (match acct.outcome with
    | "malformed" -> incr malformed
    | "error" -> incr errors
    | _ -> ());
    probes := !probes + acct.probes;
    (match acct.ok_world with
    | Some wid ->
        let queries, world_probes = Hashtbl.find world_tallies wid in
        incr queries;
        world_probes := !world_probes + acct.probes;
        if acct.op = "route" then
          Obs.Metrics.observe probe_hist "serve.route.probes" acct.probes
    | None -> ());
    if telemetered && acct.elapsed_ns > 0. then
      Obs.Telemetry.observe_ns
        ("serve.latency." ^ acct.op ^ "_ns")
        acct.elapsed_ns;
    (match acct.record with
    | Some record ->
        incr attempts;
        if acct.accepted then incr accepted;
        List.iter
          (fun l -> Buffer.add_string trace_buffer l)
          (Obs.Trace.record_lines record)
    | None -> ());
    if traced then
      Buffer.add_string trace_buffer
        (Obs.Trace.qspan_line ~q:qindex ~stage:Obs.Trace.Tally);
    metrics_acc := Obs.Metrics.merge !metrics_acc acct.metrics
  in
  let pending = ref [] and pending_n = ref 0 in
  let beat ~force () =
    if telemetered then begin
      Obs.Runtime.publish_process ();
      Obs.Telemetry.set_gauge "serve.admitted" (float_of_int !admitted);
      Obs.Telemetry.set_gauge "serve.answered" (float_of_int !answered);
      Obs.Telemetry.set_gauge "serve.rejected" (float_of_int !rejected);
      Obs.Telemetry.set_gauge "serve.queue_depth" (float_of_int !pending_n);
      let extra = [ ("session", J.String sess.Session.name) ] in
      if force then Obs.Telemetry.heartbeat ~extra ()
      else Obs.Telemetry.maybe_heartbeat ~extra ()
    end
  in
  let flush () =
    if !pending_n > 0 then begin
      let items = Array.of_list (List.rev !pending) in
      pending := [];
      pending_n := 0;
      let results =
        Engine_par.Pool.map ?jobs
          (fun (qindex, item) -> eval t ~qindex item)
          items
      in
      let trace_buffer = Buffer.create (if traced then 4096 else 16) in
      Array.iteri
        (fun i r -> tally ~qindex:(fst items.(i)) r trace_buffer)
        results;
      if traced && Buffer.length trace_buffer > 0 then
        Obs.Trace.write_line (Buffer.contents trace_buffer);
      beat ~force:false ()
    end
  in
  let enqueue qindex item =
    if traced then
      Obs.Trace.write_line
        (Obs.Trace.qspan_line ~q:qindex ~stage:Obs.Trace.Enqueue);
    pending := (qindex, item) :: !pending;
    incr pending_n;
    if telemetered then
      Obs.Telemetry.max_gauge "serve.queue_depth_peak" (float_of_int !pending_n);
    if !pending_n >= capacity then flush ()
  in
  let answer_stats qindex qid =
    let t0 = if telemetered then Unix.gettimeofday () else 0. in
    flush ();
    (* Every earlier query is now tallied, so the counters are a pure
       function of the admission index — capacity/jobs cannot show. *)
    let world_counts =
      List.map
        (fun r ->
          let wid = r.wspec.Session.wid in
          let queries, _ = Hashtbl.find world_tallies wid in
          (wid, J.Int !queries))
        (List.sort
           (fun a b -> compare a.wspec.Session.wid b.wspec.Session.wid)
           t.residents)
    in
    let probe_q =
      (* Quantiles of route probe counts so far — integer estimates off
         the deterministic histogram (Hist.quantile), Null before the
         first route answer. *)
      let hist =
        Obs.Metrics.histogram (Obs.Metrics.snapshot probe_hist) "serve.route.probes"
      in
      List.map
        (fun (label, q) ->
          ( label,
            match Option.bind hist (fun h -> Obs.Hist.quantile h q) with
            | Some v -> J.Int (int_of_float v)
            | None -> J.Null ))
        [ ("probes_p50", 0.5); ("probes_p95", 0.95); ("probes_p99", 0.99) ]
    in
    let line =
      ok_answer ~qid ~op:"stats" ~world:J.Null
        ([
           ("outcome", J.String "stats");
           ("admitted", J.Int qindex);
           ("answered", J.Int !answered);
           ("probes", J.Int !probes);
         ]
        @ probe_q
        @ [ ("worlds", J.Obj world_counts) ])
    in
    let trace_buffer = Buffer.create 16 in
    let acct =
      let base = silent_acct ~op:"stats" "stats" in
      if telemetered then
        { base with elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 }
      else base
    in
    tally ~qindex (line, acct) trace_buffer;
    if traced && Buffer.length trace_buffer > 0 then
      Obs.Trace.write_line (Buffer.contents trace_buffer)
  in
  let rec loop () =
    match read () with
    | None -> ()
    | Some raw ->
        let line = String.trim raw in
        if line = "" then loop ()
        else if
          match sess.Session.limits.Session.max_queries with
          | Some m -> !admitted >= m
          | None -> false
        then begin
          (* Admission cap: drain and count — bounded work per line,
             no answer, reported via evidence + exit code. *)
          incr rejected;
          loop ()
        end
        else begin
          incr admitted;
          let qindex = !admitted in
          if traced then
            Obs.Trace.write_line
              (Obs.Trace.qspan_line ~q:qindex ~stage:Obs.Trace.Admit);
          (match Query.parse line with
          | Error e ->
              enqueue qindex (Bad { qid = qid_of_bad_line line; error = e })
          | Ok q when q.Query.op = Query.Stats && Session.allows sess "stats"
            ->
              answer_stats qindex q.Query.qid
          | Ok q -> enqueue qindex (Ask q));
          loop ()
        end
  in
  loop ();
  flush ();
  beat ~force:true ();
  if traced then
    Obs.Trace.write_line
      (Obs.Trace.end_line ~attempts:!attempts ~accepted:!accepted);
  if metered then begin
    Obs.Metrics.absorb !metrics_acc;
    Obs.Metrics.absorb (Obs.Metrics.snapshot probe_hist);
    let registry = Obs.Metrics.create () in
    Obs.Metrics.add registry "serve.admitted" !admitted;
    Obs.Metrics.add registry "serve.answered" !answered;
    Obs.Metrics.add registry "serve.malformed" !malformed;
    Obs.Metrics.add registry "serve.errors" !errors;
    Obs.Metrics.add registry "serve.rejected" !rejected;
    Obs.Metrics.add registry "serve.probes" !probes;
    Hashtbl.iter
      (fun key count ->
        if count > 0 then Obs.Metrics.add registry ("serve.outcome." ^ key) count)
      outcome_counts;
    let built = List.length (List.filter (fun r -> r.constructed) t.residents) in
    Obs.Metrics.add registry "worldpool.constructed" built;
    Obs.Metrics.add registry "worldpool.hits" (List.length t.residents - built);
    Obs.Metrics.absorb (Obs.Metrics.snapshot registry)
  end;
  let world_rows =
    List.sort
      (fun (a : Evidence.world_row) b -> compare a.Evidence.wid b.Evidence.wid)
      (List.map
         (fun r ->
           let wid = r.wspec.Session.wid in
           let queries, world_probes = Hashtbl.find world_tallies wid in
           {
             Evidence.wid;
             constructed = (if r.constructed then 1 else 0);
             queries = !queries;
             probes = !world_probes;
           })
         t.residents)
  in
  let evidence =
    {
      Evidence.session = sess.Session.name;
      config_digest = Session.digest sess;
      queue = capacity;
      max_queries = sess.Session.limits.Session.max_queries;
      admitted = !admitted;
      answered = !answered;
      malformed = !malformed;
      errors = !errors;
      rejected = !rejected;
      probes = !probes;
      outcomes =
        List.map (fun k -> (k, Hashtbl.find outcome_counts k)) Evidence.outcome_keys;
      worlds = world_rows;
    }
  in
  { evidence; overflowed = !rejected > 0 }

let run ?jobs sess ~read ~write =
  match start sess with
  | Error _ as e -> e
  | Ok t -> Ok (serve ?jobs t ~read ~write)
