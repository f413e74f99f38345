(** Column-aligned plain-text tables for experiment reports. *)

type t
(** A table under construction. *)

val create : headers:string list -> t
(** [create ~headers] starts a table. All rows must match the header
    arity. Numeric-looking columns are right-aligned, the rest left. *)

val add_row : t -> string list -> t
(** [add_row t cells] appends a row.
    @raise Invalid_argument if the arity differs from the headers. *)

val render : t -> string
(** Renders with a header rule, e.g.:
    {v
    alpha   median probes   censored
    -----   -------------   --------
     0.30             312       0/200
    v} *)

val to_csv : t -> string
(** Comma-separated rendering (cells containing commas or quotes are
    quoted per RFC 4180). *)
