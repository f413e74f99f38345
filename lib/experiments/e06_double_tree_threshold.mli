(** Experiment E6 — double-tree connectivity threshold (Lemma 6). *)

val id : string
val title : string
val claim : string

val run : ?quick:bool -> Prng.Stream.t -> Report.t
(** [run stream] executes the experiment; [~quick:true] shrinks it. *)
