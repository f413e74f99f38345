type injection = Pass | Crash | Stall

type fault_kind =
  | Injected_crash
  | Injected_stall
  | Deadline
  | Task_exception of string

let kind_string = function
  | Injected_crash -> "injected_crash"
  | Injected_stall -> "injected_stall"
  | Deadline -> "deadline"
  | Task_exception message -> Printf.sprintf "exception:%s" message

type failure = { chunk : int; attempt : int; kind : fault_kind }

type 'a outcome = Completed of 'a | Quarantined of failure list

type policy = {
  max_attempts : int;
  backoff_s : float;
  max_backoff_s : float;
  deadline_s : float option;
}

let default_policy =
  { max_attempts = 3; backoff_s = 0.001; max_backoff_s = 0.25; deadline_s = None }

let validate_policy p =
  if p.max_attempts < 1 then
    invalid_arg "Supervisor: max_attempts must be at least 1";
  if p.backoff_s < 0.0 || p.max_backoff_s < 0.0 then
    invalid_arg "Supervisor: negative backoff";
  match p.deadline_s with
  | Some d when d <= 0.0 -> invalid_arg "Supervisor: deadline must be positive"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Arming: the ambient policy the chunked runner picks up. One atomic
   read decides whether a run takes the supervised path at all, so the
   disabled path costs nothing.                                        *)

let ambient_policy : policy option Atomic.t = Atomic.make None

let arm policy =
  validate_policy policy;
  Atomic.set ambient_policy (Some policy)

let disarm () = Atomic.set ambient_policy None
let armed () = Atomic.get ambient_policy <> None
let current_policy () = Atomic.get ambient_policy

(* ------------------------------------------------------------------ *)
(* Cooperative watchdog. A stuck OCaml domain cannot be preempted, so
   the per-chunk deadline has two detection points: [poll], called by
   instrumented work at natural boundaries (the trial engine polls at
   every attempt start), raises as soon as the budget is spent; and a
   post-hoc check when the chunk returns, which catches work that never
   polled. Both use the same wall-clock reading discipline as
   [Obs.Timing] (monotonic in practice on the hosts we run on). *)

exception Deadline_exceeded

let watchdog = Atomic.make false
let[@inline] watchdog_armed () = Atomic.get watchdog

let expiry : float option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let poll () =
  match Domain.DLS.get expiry with
  | Some t when Unix.gettimeofday () > t -> raise Deadline_exceeded
  | Some _ | None -> ()

let with_deadline deadline_s f =
  match deadline_s with
  | None -> f ()
  | Some d ->
      let t0 = Unix.gettimeofday () in
      let previous = Domain.DLS.get expiry in
      Domain.DLS.set expiry (Some (t0 +. d));
      let result =
        Fun.protect ~finally:(fun () -> Domain.DLS.set expiry previous) f
      in
      if Unix.gettimeofday () -. t0 > d then raise Deadline_exceeded;
      result

(* ------------------------------------------------------------------ *)
(* Campaign-wide fault accounting (for the CLI's faults/v1 section and
   exit code 5): every collect_prefix run folds its failures in here.  *)

type summary = {
  retries : int;
  failures : failure list;  (** Sorted by (chunk, attempt). *)
  quarantined : int list;  (** Sorted chunk indices, one per lost chunk per run. *)
  failed_units : string list;
      (** Units supervised outside the pool (e.g. whole experiments in
          [Catalog.run_all]) that failed unrecoverably. *)
}

let empty_summary =
  { retries = 0; failures = []; quarantined = []; failed_units = [] }

let compare_failure a b =
  match compare a.chunk b.chunk with 0 -> compare a.attempt b.attempt | c -> c

let sort_summary s =
  {
    s with
    failures = List.sort compare_failure s.failures;
    quarantined = List.sort compare s.quarantined;
    failed_units = List.sort compare s.failed_units;
  }

let global_lock = Mutex.create ()
let global = ref empty_summary

let absorb_locked f =
  Mutex.lock global_lock;
  global := f !global;
  Mutex.unlock global_lock

let absorb_summary s =
  absorb_locked (fun g ->
      {
        retries = g.retries + s.retries;
        failures = List.rev_append s.failures g.failures;
        quarantined = List.rev_append s.quarantined g.quarantined;
        failed_units = List.rev_append s.failed_units g.failed_units;
      })

let record_unit_failure ~unit ~message =
  absorb_locked (fun g ->
      {
        g with
        failed_units = Printf.sprintf "%s: %s" unit message :: g.failed_units;
      })

let global_summary () =
  Mutex.lock global_lock;
  let s = !global in
  Mutex.unlock global_lock;
  sort_summary s

let reset_global () =
  Mutex.lock global_lock;
  global := empty_summary;
  Mutex.unlock global_lock

let unrecoverable s = s.quarantined <> [] || s.failed_units <> []

let metrics_snapshot () =
  let s = global_summary () in
  let registry = Obs.Metrics.create () in
  Obs.Metrics.add registry "supervisor.retries" s.retries;
  Obs.Metrics.add registry "supervisor.quarantined" (List.length s.quarantined);
  Obs.Metrics.add registry "supervisor.failed_units" (List.length s.failed_units);
  List.iter
    (fun f ->
      Obs.Metrics.incr registry
        (match f.kind with
        | Injected_crash -> "supervisor.faults.injected_crash"
        | Injected_stall -> "supervisor.faults.injected_stall"
        | Deadline -> "supervisor.faults.deadline"
        | Task_exception _ -> "supervisor.faults.exception"))
    s.failures;
  Obs.Metrics.snapshot registry

let summary_json s =
  let fail f =
    Obs.Json.Obj
      [
        ("chunk", Obs.Json.Int f.chunk);
        ("attempt", Obs.Json.Int f.attempt);
        ("kind", Obs.Json.String (kind_string f.kind));
      ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "faults/v1");
      ("retries", Obs.Json.Int s.retries);
      ("unrecoverable", Obs.Json.Bool (unrecoverable s));
      ("quarantined", Obs.Json.List (List.map (fun c -> Obs.Json.Int c) s.quarantined));
      ( "failed_units",
        Obs.Json.List (List.map (fun u -> Obs.Json.String u) s.failed_units) );
      ("failures", Obs.Json.List (List.map fail s.failures));
    ]

(* ------------------------------------------------------------------ *)
(* The supervised pool.                                                *)

let backoff_delay policy attempt =
  (* Exponential: base * 2^(attempt-1), capped. Attempt 1 has no delay —
     the first retry is immediate work, not punishment. *)
  if attempt <= 1 || policy.backoff_s <= 0.0 then 0.0
  else
    Stdlib.min policy.max_backoff_s
      (policy.backoff_s *. (2.0 ** float_of_int (attempt - 2)))

let run_supervised ~policy ~inject ~record work chunk =
  (* The retry loop for one chunk, run entirely on whichever domain the
     pool handed the chunk to. [work] is pure, so a retried chunk
     recomputes the identical value — which is why reports stay
     byte-identical to a fault-free run when every chunk eventually
     succeeds. *)
  let rec attempt k failures =
    if k > policy.max_attempts then Quarantined (List.rev failures)
    else begin
      let delay = backoff_delay policy k in
      if delay > 0.0 then begin
        Obs.Telemetry.add_to "supervisor.backoff_s" delay;
        Unix.sleepf delay
      end;
      let fail kind =
        let f = { chunk; attempt = k; kind } in
        record f;
        Obs.Telemetry.add_to "supervisor.retries" 1.;
        attempt (k + 1) (f :: failures)
      in
      match inject ~chunk ~attempt:k with
      | Crash -> fail Injected_crash
      | Stall ->
          (* An injected stall models work that never returns within its
             deadline: the watchdog fires without running the task, so
             the simulation is deterministic and costs no wall time. *)
          fail Injected_stall
      | Pass -> (
          let t0 = if Obs.Telemetry.on () then Unix.gettimeofday () else 0. in
          let observe () =
            if Obs.Telemetry.on () then
              Obs.Telemetry.observe_ns "supervisor.attempt_ns"
                ((Unix.gettimeofday () -. t0) *. 1e9)
          in
          match with_deadline policy.deadline_s (fun () -> work chunk) with
          | result ->
              observe ();
              Completed result
          | exception Deadline_exceeded ->
              observe ();
              fail Deadline
          | exception exn ->
              observe ();
              fail (Task_exception (Printexc.to_string exn)))
    end
  in
  attempt 1 []

let no_injection ~chunk:_ ~attempt:_ = Pass

let collect_prefix ?jobs ?(policy = default_policy)
    ?(inject = no_injection) ?(first = 0) ~limit ~until work =
  validate_policy policy;
  if first < 0 || first > limit then
    invalid_arg "Supervisor.collect_prefix: first outside [0, limit]";
  let retries = Atomic.make 0 in
  let failures_lock = Mutex.create () in
  let failures = ref [] in
  let record f =
    Atomic.incr retries;
    Mutex.lock failures_lock;
    failures := f :: !failures;
    Mutex.unlock failures_lock
  in
  let armed_deadline = policy.deadline_s <> None in
  if armed_deadline then Atomic.set watchdog true;
  let supervised i = run_supervised ~policy ~inject ~record work (first + i) in
  let until_outcome = function
    | Completed r -> until r
    | Quarantined _ -> false
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> if armed_deadline then Atomic.set watchdog false)
      (fun () ->
        Pool.collect_prefix ?jobs ~limit:(limit - first) ~until:until_outcome
          supervised)
  in
  let quarantined =
    Array.to_list outcomes
    |> List.concat_map (function
         | Quarantined (f :: _) -> [ f.chunk ]
         | Quarantined [] | Completed _ -> [])
  in
  (* Retries counted here are attempts beyond the first, i.e. every
     recorded failure whose chunk was eventually retried (quarantining
     attempts count too: they were retried up to the budget). *)
  let summary =
    sort_summary
      {
        retries = Atomic.get retries;
        failures = !failures;
        quarantined;
        failed_units = [];
      }
  in
  absorb_summary summary;
  (outcomes, summary)
