type 'a codec = { to_json : 'a -> Obs.Json.t; of_json : Obs.Json.t -> 'a option }

let schema = "checkpoint/v1"
let file ~dir = Filename.concat dir "checkpoint.jsonl"
let digest_key canonical = Digest.to_hex (Digest.string canonical)

(* Decode every item or nothing: a chunk with one bad cell is a miss. *)
let decode_all decode items =
  let decoded = List.filter_map decode items in
  if List.compare_lengths decoded items = 0 then Some (Array.of_list decoded)
  else None

(* Float vectors, one per cell, serialized as IEEE-754 bit patterns in
   hex — decimal printing would round through the parser and break the
   byte-identical resume guarantee. *)
let floats =
  let float_to_json v =
    Obs.Json.String (Printf.sprintf "%Lx" (Int64.bits_of_float v))
  in
  let float_of_json = function
    | Obs.Json.String s ->
        Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ s))
    | _ -> None
  in
  {
    to_json = (fun vs -> Obs.Json.List (Array.to_list (Array.map float_to_json vs)));
    of_json = (fun json -> Option.bind (Obs.Json.to_list json) (decode_all float_of_json));
  }

let chunk_line ~key ~chunk cells =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String schema);
         ("ev", Obs.Json.String "chunk");
         ("key", Obs.Json.String key);
         ("chunk", Obs.Json.Int chunk);
         ("cells", Obs.Json.List cells);
       ])
  ^ "\n"

let meta_line () =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("schema", Obs.Json.String schema); ("ev", Obs.Json.String "meta") ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Journal state. One table of raw JSON cells keyed by (config digest,
   chunk index), decoded by the caller's codec at lookup; the channel
   stays open with a per-line flush, so a kill can tear at most the
   line in flight — which the loader below shrugs off.                 *)

type journal = {
  table : (string * int, Obs.Json.t list) Hashtbl.t;
  channel : out_channel;
}

let lock = Mutex.create ()
let state : journal option ref = ref None
let is_active = Atomic.make false
let restored_count = Atomic.make 0
let appended_count = Atomic.make 0
let kill_after : int option Atomic.t = Atomic.make None

let set_kill_after n = Atomic.set kill_after n
let restored () = Atomic.get restored_count
let appended () = Atomic.get appended_count

let active () = Atomic.get is_active

(* Tolerant load: a torn final line (the kill case) or any other
   unparseable line is skipped, never fatal — losing one chunk to a
   crash costs recomputing it, not the resume. [vchunk] is how older
   journals tagged float-vector chunks; their cells are the same JSON
   the [floats] codec reads. *)
let load_journal path table =
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match Obs.Json.of_string line with
            | Error _ -> ()
            | Ok json -> (
                match
                  ( Option.bind (Obs.Json.member "ev" json) Obs.Json.to_str,
                    Option.bind (Obs.Json.member "key" json) Obs.Json.to_str,
                    Option.bind (Obs.Json.member "chunk" json) Obs.Json.to_int,
                    Option.bind (Obs.Json.member "cells" json) Obs.Json.to_list )
                with
                | Some ("chunk" | "vchunk"), Some key, Some chunk, Some cells ->
                    Hashtbl.replace table (key, chunk) cells
                | _ -> ()));
            loop ()
      in
      loop ())

let close_locked () =
  (match !state with
  | Some j -> ( try close_out j.channel with Sys_error _ -> ())
  | None -> ());
  state := None;
  Atomic.set is_active false

let deconfigure () =
  Mutex.lock lock;
  close_locked ();
  Mutex.unlock lock;
  Atomic.set kill_after None

let configure ~dir ~resume =
  Mutex.lock lock;
  let result =
    try
      close_locked ();
      Obs.Atomic_file.mkdir_p dir;
      let path = file ~dir in
      let table = Hashtbl.create 256 in
      let fresh = (not resume) || not (Sys.file_exists path) in
      if not fresh then load_journal path table;
      let channel =
        open_out_gen
          (Open_wronly :: Open_creat
          :: (if fresh then [ Open_trunc ] else [ Open_append ]))
          0o644 path
      in
      if fresh then begin
        output_string channel (meta_line ());
        flush channel
      end;
      state := Some { table; channel };
      Atomic.set is_active true;
      Atomic.set restored_count 0;
      Atomic.set appended_count 0;
      Ok ()
    with
    | Sys_error message -> Error message
    | Unix.Unix_error (code, fn, arg) ->
        Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message code))
  in
  Mutex.unlock lock;
  result

let lookup codec ~key ~chunk =
  Mutex.lock lock;
  let raw =
    match !state with
    | None -> None
    | Some j -> Hashtbl.find_opt j.table (key, chunk)
  in
  Mutex.unlock lock;
  let hit = Option.bind raw (decode_all codec.of_json) in
  if hit <> None then Atomic.incr restored_count;
  hit

let store codec ~key ~chunk cells =
  let cells = Array.to_list (Array.map codec.to_json cells) in
  let line = chunk_line ~key ~chunk cells in
  let stored =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match !state with
        | None -> false
        | Some j ->
            Hashtbl.replace j.table (key, chunk) cells;
            output_string j.channel line;
            flush j.channel;
            true)
  in
  if stored then begin
    let n = 1 + Atomic.fetch_and_add appended_count 1 in
    (* The simulated kill -9: exit without flushing anything else or
       running at_exit, exactly as a signal would take the process
       down. The journal line above is already on disk. *)
    match Atomic.get kill_after with
    | Some threshold when n >= threshold -> Unix._exit 137
    | _ -> ()
  end

let metrics_snapshot () =
  let registry = Obs.Metrics.create () in
  Obs.Metrics.add registry "checkpoint.chunks.restored" (restored ());
  Obs.Metrics.add registry "checkpoint.chunks.appended" (appended ());
  Obs.Metrics.snapshot registry
