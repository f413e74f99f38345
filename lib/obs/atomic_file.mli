(** Crash-safe file writes: temp file in the target directory, then an
    atomic rename.

    A process killed mid-write must never leave a half-written
    [verdicts/*.json] baseline or a corrupt [runledger/v1] line
    behind: readers see either the old contents or the new, nothing in
    between. POSIX [rename(2)] within one directory gives exactly that,
    so every write lands in a [.tmp.<pid>] sibling first.

    Append-only streams that must survive mid-line truncation by design
    (the [checkpoint/v1] trial journal) do {e not} use this module —
    their readers tolerate a torn final line instead, which is cheaper
    than rewriting the file per record. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents ([mkdir -p]). Existing
    directories are fine; raises [Unix.Unix_error] only on genuine
    failures (permissions, a file in the way). *)

val write : path:string -> contents:string -> unit
(** Replace the file at [path] with [contents] atomically. Parent
    directories are created as needed. *)

val append_line : path:string -> line:string -> unit
(** Append [line] (which should include its newline) to [path]
    atomically: the old contents plus the new line are written to a
    temp sibling which then replaces [path], so a crash can corrupt
    neither the existing lines nor the new record. Creates the file
    (and parent directories) when missing. Not for hot paths — cost is
    proportional to the file size. *)
