(** A minimal JSON value type with an emitter and a parser.

    Just enough machinery for the [trace/v1] and [metrics/v1] wire
    formats: objects, arrays, strings, booleans, null, and numbers
    (integers kept exact as [Int]). No external dependency — the repo
    policy is hand-rolled JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no trailing newline). Object fields
    are emitted in the order given — emitters sort them where byte
    determinism matters.

    {b Non-finite float policy.} JSON has no literal for [nan] or
    [±infinity], so a non-finite [Float] is emitted as [null] — the
    document stays parseable and a reader sees an explicitly absent
    value rather than a junk token. This is the right default for the
    float-heavy wall-clock artifacts ([profile/v1], [telemetry/v1]),
    where a non-finite value means "not measured". Emitters that must
    {e round-trip} non-finite values (e.g. {!Verdict.Baseline}) encode
    them as the strings ["nan"]/["inf"]/["-inf"] at their own layer;
    this module never produces those strings itself. Finite floats
    round-trip exactly: [of_string (to_string (Float f)) = Ok (Float f)]
    for every finite [f] (integer-valued floats are emitted with a
    [.0] suffix so they parse back as [Float], not [Int]). *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing whitespace allowed, anything else
    after the value is an error. Numbers without [.], [e] or [E] parse
    as [Int]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option

val to_float : t -> float option
(** [Float] as-is; [Int] widened — JSON writers drop the fraction on
    round values. *)

val to_list : t -> t list option
