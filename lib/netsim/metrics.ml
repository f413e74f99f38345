(* Six plain counters: the engine ticks one per round, send, delivery,
   probe and block, so each tick is a field increment, not a registry
   lookup. The [netsim.*] names exist only in [snapshot]. *)

type t = {
  mutable rounds : int;
  mutable sent : int;
  mutable delivered : int;
  mutable raw : int;
  mutable distinct : int;
  mutable blocked : int;
}

let create () =
  { rounds = 0; sent = 0; delivered = 0; raw = 0; distinct = 0; blocked = 0 }

let tick_round t = t.rounds <- t.rounds + 1
let tick_sent t = t.sent <- t.sent + 1
let tick_delivered t = t.delivered <- t.delivered + 1
let tick_raw_probe t = t.raw <- t.raw + 1
let tick_distinct_probe t = t.distinct <- t.distinct + 1
let tick_churn_blocked t = t.blocked <- t.blocked + 1

let rounds t = t.rounds
let messages_sent t = t.sent
let messages_delivered t = t.delivered
let raw_probes t = t.raw
let distinct_probes t = t.distinct
let churn_blocked t = t.blocked

(* A counter never ticked stays out of the snapshot: metrics/v1 lists
   only the counters a run moved, and the committed goldens of
   [make churn-smoke] pin that set. *)
let snapshot t =
  let registry = Obs.Metrics.create () in
  List.iter
    (fun (name, n) -> if n > 0 then Obs.Metrics.add registry name n)
    [
      ("netsim.rounds", t.rounds);
      ("netsim.messages_sent", t.sent);
      ("netsim.messages_delivered", t.delivered);
      ("netsim.raw_probes", t.raw);
      ("netsim.distinct_probes", t.distinct);
      ("netsim.churn.blocked", t.blocked);
    ];
  Obs.Metrics.snapshot registry

let delivery_rate t =
  if t.sent = 0 then nan else float_of_int t.delivered /. float_of_int t.sent

let pp ppf t =
  Format.fprintf ppf "rounds=%d sent=%d delivered=%d probes=%d (%d raw)"
    t.rounds t.sent t.delivered t.distinct t.raw;
  if t.blocked > 0 then Format.fprintf ppf " churn-blocked=%d" t.blocked
