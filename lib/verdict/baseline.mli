(** Committed claim baselines ([verdict_baseline/v1]).

    A baseline records, per claim id, the observed values of a reference
    run at a fixed (mode, seed). The verdict engine compares a fresh
    run's values against it: the claim's bounds live in code, so a
    baseline mismatch is {e drift} (a measurement moved), not failure.

    Seeds are serialised as strings ([%Ld]) because JSON numbers cannot
    carry a full int64. [to_string] emits one entry per line, sorted by
    id, so baseline updates diff reviewably in git. *)

val schema : string
(** ["verdict_baseline/v1"]. *)

type t = private {
  mode : string;  (** ["quick"] or ["full"]. *)
  seed : int64;  (** Root seed of the reference run. *)
  tolerance : float;  (** Max relative deviation counted as equal. *)
  entries : (string * float list) list;  (** Sorted by claim id. *)
}

val make : mode:string -> seed:int64 -> ?tolerance:float -> (string * float list) list -> t
(** Sorts entries by id. Default [tolerance] is [1e-9].
    @raise Invalid_argument on duplicate ids or a negative tolerance. *)

val find : t -> string -> float list option

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

val json_of_value : float -> Obs.Json.t
(** Finite floats as numbers; non-finite as ["nan"]/["inf"]/["-inf"]
    strings (JSON has no literals for them). *)

val to_string : t -> string
(** Pretty, diff-friendly rendering (one entry per line, trailing
    newline). Non-finite values are encoded as the strings ["nan"],
    ["inf"], ["-inf"]. *)

val of_string : string -> (t, string) result

val load : string -> (t, string) result
(** Read and parse a baseline file; [Error] carries the I/O or parse
    message. *)

val save : string -> t -> unit
