type reject_reason = Disconnected | Reveal_limit

type qstage = Admit | Enqueue | Execute | Tally

let qstage_string = function
  | Admit -> "admit"
  | Enqueue -> "enqueue"
  | Execute -> "execute"
  | Tally -> "tally"

type event =
  | Attempt_start of { index : int }
  | Reveal_step of { v : int; dist : int }
  | Probe of { u : int; v : int; open_ : bool; fresh : bool }
  | Budget_hit of { probes : int }
  | Reject of { reason : reject_reason }
  | Accept of { distance : int; probes : int }
  | Query_span of { q : int; stage : qstage }

let distinct_probes_of_events events =
  List.fold_left
    (fun acc -> function Probe { fresh = true; _ } -> acc + 1 | _ -> acc)
    0 events

(* ------------------------------------------------------------------ *)
(* Enable switch and sink. The sink is only ever driven from the
   caller's domain (the trial engine writes after its deterministic
   merge), so a plain mutex suffices and ordering is the caller's.     *)

let enabled = Atomic.make false

let[@inline] on () = Atomic.get enabled

let sink_lock = Mutex.create ()
let sink : (string -> unit) option ref = ref None

let enable ~sink:s =
  Mutex.lock sink_lock;
  sink := Some s;
  Mutex.unlock sink_lock;
  Atomic.set enabled true

let disable () =
  Atomic.set enabled false;
  Mutex.lock sink_lock;
  sink := None;
  Mutex.unlock sink_lock

let local_sink : (string -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_sink s f =
  let previous = Domain.DLS.get local_sink in
  Domain.DLS.set local_sink (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set local_sink previous) f

let write_line line =
  if on () then
    match Domain.DLS.get local_sink with
    | Some s -> s line
    | None ->
        Mutex.lock sink_lock;
        (match !sink with Some s -> s line | None -> ());
        Mutex.unlock sink_lock

(* ------------------------------------------------------------------ *)
(* Per-attempt ring buffers.                                           *)

let default_ring_capacity = 65536

let ring_capacity = Atomic.make default_ring_capacity

let set_ring_capacity c =
  if c <= 0 then invalid_arg "Trace.set_ring_capacity: capacity must be positive";
  Atomic.set ring_capacity c

type ring = {
  index : int;
  events : event array;
  capacity : int;
  mutable length : int;  (* events currently held, <= capacity *)
  mutable total : int;  (* events ever pushed *)
}

let dummy_event = Attempt_start { index = -1 }

let ring_create index =
  let capacity = Atomic.get ring_capacity in
  { index; events = Array.make capacity dummy_event; capacity; length = 0; total = 0 }

let ring_push r ev =
  (* Overwrite the oldest once full: slot [total mod capacity] always
     receives the newest event. *)
  r.events.(r.total mod r.capacity) <- ev;
  r.total <- r.total + 1;
  if r.length < r.capacity then r.length <- r.length + 1

type record = { rec_index : int; rec_events : event list; rec_dropped : int }

let record_index r = r.rec_index
let record_events r = r.rec_events
let record_dropped r = r.rec_dropped

let ring_record r =
  let oldest = r.total - r.length in
  {
    rec_index = r.index;
    rec_events =
      List.init r.length (fun k -> r.events.((oldest + k) mod r.capacity));
    rec_dropped = oldest;
  }

let ambient : ring option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let capture ~index f =
  let ring = ring_create index in
  let previous = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some ring);
  let result =
    Fun.protect ~finally:(fun () -> Domain.DLS.set ambient previous) f
  in
  (result, ring_record ring)

let emit ev =
  match Domain.DLS.get ambient with Some r -> ring_push r ev | None -> ()

(* ------------------------------------------------------------------ *)
(* JSONL encoding.                                                     *)

let reason_string = function
  | Disconnected -> "disconnected"
  | Reveal_limit -> "reveal_limit"

let event_fields attempt = function
  | Attempt_start _ ->
      [ ("ev", Json.String "attempt_start"); ("attempt", Json.Int attempt) ]
  | Reveal_step { v; dist } ->
      [
        ("ev", Json.String "reveal_step");
        ("attempt", Json.Int attempt);
        ("v", Json.Int v);
        ("dist", Json.Int dist);
      ]
  | Probe { u; v; open_; fresh } ->
      [
        ("ev", Json.String "probe");
        ("attempt", Json.Int attempt);
        ("u", Json.Int u);
        ("v", Json.Int v);
        ("open", Json.Bool open_);
        ("fresh", Json.Bool fresh);
      ]
  | Budget_hit { probes } ->
      [
        ("ev", Json.String "budget_hit");
        ("attempt", Json.Int attempt);
        ("probes", Json.Int probes);
      ]
  | Reject { reason } ->
      [
        ("ev", Json.String "reject");
        ("attempt", Json.Int attempt);
        ("reason", Json.String (reason_string reason));
      ]
  | Accept { distance; probes } ->
      [
        ("ev", Json.String "accept");
        ("attempt", Json.Int attempt);
        ("distance", Json.Int distance);
        ("probes", Json.Int probes);
      ]
  | Query_span { q; stage } ->
      [
        ("ev", Json.String "qspan");
        ("attempt", Json.Int attempt);
        ("q", Json.Int q);
        ("stage", Json.String (qstage_string stage));
      ]

let line fields = Json.to_string (Json.Obj fields) ^ "\n"

let header_line fields =
  line (("schema", Json.String "trace/v1") :: ("ev", Json.String "run_start") :: fields)

let end_line ~attempts ~accepted =
  line
    [
      ("ev", Json.String "run_end");
      ("attempts", Json.Int attempts);
      ("accepted", Json.Int accepted);
    ]

let qspan_line ~q ~stage =
  line
    [
      ("ev", Json.String "qspan");
      ("q", Json.Int q);
      ("stage", Json.String (qstage_string stage));
    ]

let fault_line ~chunk ~attempt ~kind =
  line
    [
      ("ev", Json.String "fault");
      ("chunk", Json.Int chunk);
      ("fault_attempt", Json.Int attempt);
      ("kind", Json.String kind);
    ]

let record_lines r =
  let events = List.map (fun ev -> line (event_fields r.rec_index ev)) r.rec_events in
  if r.rec_dropped = 0 then events
  else
    events
    @ [
        line
          [
            ("ev", Json.String "dropped");
            ("attempt", Json.Int r.rec_index);
            ("count", Json.Int r.rec_dropped);
          ];
      ]

(* ------------------------------------------------------------------ *)
(* Observed units of work.                                             *)

type 'a observed = { value : 'a; record : record option; metrics : Metrics.snapshot }

let observe ~index f =
  let traced = on () in
  let metered = Metrics.on () in
  if not (traced || metered) then { value = f (); record = None; metrics = Metrics.empty }
  else begin
    let with_metrics () =
      if metered then begin
        let registry = Metrics.create () in
        let value = Metrics.with_ambient registry f in
        (value, Metrics.snapshot registry)
      end
      else (f (), Metrics.empty)
    in
    if traced then begin
      let (value, metrics), record =
        capture ~index (fun () ->
            emit (Attempt_start { index });
            with_metrics ())
      in
      { value; record = Some record; metrics }
    end
    else
      let value, metrics = with_metrics () in
      { value; record = None; metrics }
  end

let write_run ~header ?(run_lines = []) ~attempts ~accepted records =
  if on () then begin
    let buffer = Buffer.create 4096 in
    Buffer.add_string buffer (header_line header);
    List.iter
      (fun r -> List.iter (Buffer.add_string buffer) (record_lines r))
      records;
    List.iter (Buffer.add_string buffer) run_lines;
    Buffer.add_string buffer (end_line ~attempts ~accepted);
    write_line (Buffer.contents buffer)
  end

(* ------------------------------------------------------------------ *)
(* Replay.                                                             *)

module Replay = struct
  type attempt = {
    index : int;
    fresh_probes : int;
    stale_probes : int;
    reveal_steps : int;
    budget_hit : bool;
    outcome : [ `Accept of int * int | `Reject of reject_reason | `Open ];
    dropped : int;
  }

  type run = {
    header : (string * Json.t) list;
    attempts : attempt list;
    declared_attempts : int option;
    declared_accepted : int option;
    faults : int;
    qspans : (int * qstage) list;  (* in emission order after flush *)
  }

  let empty_attempt index =
    {
      index;
      fresh_probes = 0;
      stale_probes = 0;
      reveal_steps = 0;
      budget_hit = false;
      outcome = `Open;
      dropped = 0;
    }

  (* Parsing folds lines into a little state machine: a current run
     being assembled, whose attempts arrive strictly in order (the
     engine writes them that way). *)
  type state = {
    done_runs : run list;  (* reversed *)
    current : run option;  (* attempts reversed *)
    open_attempt : attempt option;
  }

  let flush_attempt state =
    match (state.current, state.open_attempt) with
    | Some run, Some attempt ->
        { state with current = Some { run with attempts = attempt :: run.attempts }; open_attempt = None }
    | _, None -> state
    | None, Some _ -> state

  let flush_run state =
    let state = flush_attempt state in
    match state.current with
    | None -> state
    | Some run ->
        {
          state with
          done_runs =
            {
              run with
              attempts = List.rev run.attempts;
              qspans = List.rev run.qspans;
            }
            :: state.done_runs;
          current = None;
        }

  let require_attempt state line_no =
    match state.open_attempt with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "line %d: event outside an attempt" line_no)

  let int_field name json line_no =
    match Option.bind (Json.member name json) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "line %d: missing int field %S" line_no name)

  let bool_field name json line_no =
    match Option.bind (Json.member name json) Json.to_bool with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "line %d: missing bool field %S" line_no name)

  let ( let* ) = Result.bind

  let step state line_no json =
    match Option.bind (Json.member "ev" json) Json.to_str with
    | None -> Error (Printf.sprintf "line %d: no \"ev\" field" line_no)
    | Some ev -> (
        match ev with
        | "run_start" ->
            let state = flush_run state in
            let header =
              match json with
              | Json.Obj fields ->
                  List.filter (fun (k, _) -> k <> "schema" && k <> "ev") fields
              | _ -> []
            in
            (match Option.bind (Json.member "schema" json) Json.to_str with
            | Some "trace/v1" ->
                Ok
                  {
                    state with
                    current =
                      Some
                        {
                          header;
                          attempts = [];
                          declared_attempts = None;
                          declared_accepted = None;
                          faults = 0;
                          qspans = [];
                        };
                  }
            | Some other ->
                Error (Printf.sprintf "line %d: unsupported schema %S" line_no other)
            | None -> Error (Printf.sprintf "line %d: run_start without schema" line_no))
        | "run_end" ->
            let state = flush_attempt state in
            let* attempts = int_field "attempts" json line_no in
            let* accepted = int_field "accepted" json line_no in
            (match state.current with
            | None -> Error (Printf.sprintf "line %d: run_end outside a run" line_no)
            | Some run ->
                Ok
                  (flush_run
                     {
                       state with
                       current =
                         Some
                           {
                             run with
                             declared_attempts = Some attempts;
                             declared_accepted = Some accepted;
                           };
                     }))
        | "attempt_start" ->
            if state.current = None then
              Error (Printf.sprintf "line %d: attempt outside a run" line_no)
            else
              let state = flush_attempt state in
              let* index = int_field "attempt" json line_no in
              Ok { state with open_attempt = Some (empty_attempt index) }
        | "reveal_step" ->
            let* a = require_attempt state line_no in
            Ok { state with open_attempt = Some { a with reveal_steps = a.reveal_steps + 1 } }
        | "probe" ->
            let* a = require_attempt state line_no in
            let* fresh = bool_field "fresh" json line_no in
            let a =
              if fresh then { a with fresh_probes = a.fresh_probes + 1 }
              else { a with stale_probes = a.stale_probes + 1 }
            in
            Ok { state with open_attempt = Some a }
        | "budget_hit" ->
            let* a = require_attempt state line_no in
            Ok { state with open_attempt = Some { a with budget_hit = true } }
        | "reject" ->
            let* a = require_attempt state line_no in
            let* reason =
              match Option.bind (Json.member "reason" json) Json.to_str with
              | Some "disconnected" -> Ok Disconnected
              | Some "reveal_limit" -> Ok Reveal_limit
              | Some other ->
                  Error (Printf.sprintf "line %d: unknown reject reason %S" line_no other)
              | None -> Error (Printf.sprintf "line %d: reject without reason" line_no)
            in
            Ok { state with open_attempt = Some { a with outcome = `Reject reason } }
        | "accept" ->
            let* a = require_attempt state line_no in
            let* distance = int_field "distance" json line_no in
            let* probes = int_field "probes" json line_no in
            Ok { state with open_attempt = Some { a with outcome = `Accept (distance, probes) } }
        | "fault" -> (
            (* Run-level supervision event: a chunk attempt failed and
               was retried or quarantined. Written between the last
               attempt and run_end, outside any attempt. *)
            let state = flush_attempt state in
            match state.current with
            | None -> Error (Printf.sprintf "line %d: fault outside a run" line_no)
            | Some run ->
                Ok { state with current = Some { run with faults = run.faults + 1 } })
        | "qspan" -> (
            (* Query lifecycle span (serve): admit/enqueue/tally are
               run-level lines written by the sequential session loop;
               execute rides inside the query's attempt ring, so only
               the run-level forms close an open attempt. *)
            let* q = int_field "q" json line_no in
            let* stage =
              match Option.bind (Json.member "stage" json) Json.to_str with
              | Some "admit" -> Ok Admit
              | Some "enqueue" -> Ok Enqueue
              | Some "execute" -> Ok Execute
              | Some "tally" -> Ok Tally
              | Some other ->
                  Error
                    (Printf.sprintf "line %d: unknown qspan stage %S" line_no
                       other)
              | None ->
                  Error (Printf.sprintf "line %d: qspan without stage" line_no)
            in
            let state =
              if Json.member "attempt" json = None then flush_attempt state
              else state
            in
            match state.current with
            | None ->
                Error (Printf.sprintf "line %d: qspan outside a run" line_no)
            | Some run ->
                Ok
                  {
                    state with
                    current =
                      Some { run with qspans = (q, stage) :: run.qspans };
                  })
        | "dropped" ->
            let* a = require_attempt state line_no in
            let* count = int_field "count" json line_no in
            Ok { state with open_attempt = Some { a with dropped = count } }
        | other -> Error (Printf.sprintf "line %d: unknown event %S" line_no other))

  let parse lines =
    let rec loop state line_no = function
      | [] -> Ok (List.rev (flush_run state).done_runs)
      | line :: rest ->
          let trimmed = String.trim line in
          if trimmed = "" then loop state (line_no + 1) rest
          else
            let* json =
              Result.map_error
                (fun e -> Printf.sprintf "line %d: %s" line_no e)
                (Json.of_string trimmed)
            in
            let* state = step state line_no json in
            loop state (line_no + 1) rest
    in
    loop { done_runs = []; current = None; open_attempt = None } 1 lines

  (* Per-query lifecycle audit: stages of a query must appear in
     strictly increasing admit < enqueue < execute < tally order (each
     at most once, later stages may be skipped — a stats query goes
     admit -> tally, a failed parse skips execute), the first event
     must be the admit, and every query that appears must be tallied
     exactly once. *)
  let qspan_errors_of_run run =
    let order = function Admit -> 0 | Enqueue -> 1 | Execute -> 2 | Tally -> 3 in
    let last_stage = Hashtbl.create 64 in
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    List.iter
      (fun (q, stage) ->
        let o = order stage in
        match Hashtbl.find_opt last_stage q with
        | None ->
            if stage <> Admit then
              err "query %d: %s before admit" q (qstage_string stage);
            Hashtbl.replace last_stage q o
        | Some last ->
            if last = order Tally then
              err "query %d: %s after tally" q (qstage_string stage)
            else if o <= last then
              err "query %d: %s out of order" q (qstage_string stage)
            else Hashtbl.replace last_stage q o)
      run.qspans;
    let untallied =
      Hashtbl.fold
        (fun q last acc -> if last <> order Tally then q :: acc else acc)
        last_stage []
    in
    List.iter
      (fun q -> err "query %d: admitted but never tallied" q)
      (List.sort compare untallied);
    List.rev !errs

  type verdict = {
    runs : int;
    attempts : int;
    accepted : int;
    checked : int;
    mismatches : (int * int * int) list;
    unverifiable : int;
    count_errors : string list;
    qspans : int;
    qspan_errors : string list;
  }

  let check runs =
    let verdict =
      {
        runs = List.length runs;
        attempts = 0;
        accepted = 0;
        checked = 0;
        mismatches = [];
        unverifiable = 0;
        count_errors = [];
        qspans = 0;
        qspan_errors = [];
      }
    in
    let verdict =
      List.fold_left
        (fun v (run : run) ->
          let v =
            List.fold_left
              (fun v a ->
                let v = { v with attempts = v.attempts + 1 } in
                match a.outcome with
                | `Reject _ | `Open -> v
                | `Accept (_, recorded) ->
                    let v = { v with accepted = v.accepted + 1 } in
                    if a.dropped > 0 then { v with unverifiable = v.unverifiable + 1 }
                    else if a.fresh_probes <> recorded then
                      {
                        v with
                        checked = v.checked + 1;
                        mismatches = (a.index, a.fresh_probes, recorded) :: v.mismatches;
                      }
                    else { v with checked = v.checked + 1 })
              v run.attempts
          in
          let count_error declared actual what =
            match declared with
            | Some d when d <> actual ->
                Some
                  (Printf.sprintf "run_end declares %d %s, trace replays %d" d what actual)
            | Some _ | None -> None
          in
          let run_accepted =
            List.length
              (List.filter
                 (fun a -> match a.outcome with `Accept _ -> true | _ -> false)
                 run.attempts)
          in
          let errors =
            List.filter_map Fun.id
              [
                count_error run.declared_attempts (List.length run.attempts) "attempts";
                count_error run.declared_accepted run_accepted "accepted attempts";
              ]
          in
          {
            v with
            count_errors = v.count_errors @ errors;
            qspans = v.qspans + List.length run.qspans;
            qspan_errors = v.qspan_errors @ qspan_errors_of_run run;
          })
        verdict runs
    in
    { verdict with mismatches = List.rev verdict.mismatches }

  let ok v = v.mismatches = [] && v.count_errors = [] && v.qspan_errors = []
end
