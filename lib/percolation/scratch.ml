type slab = {
  bits : Bytes.t;
  ints : int array;
  mutable log : int array;
  home : home option;
}

and home = { mutable resting : slab option; mutable held : bool }

type key = home Domain.DLS.key

let key () = Domain.DLS.new_key (fun () -> { resting = None; held = false })

let held_count = Domain.DLS.new_key (fun () -> ref 0)

let fresh ~bits ~ints ~log home =
  { bits = Bytes.make bits '\000'; ints = Array.make ints (-1); log = Array.make log 0; home }

let lease key ~bits ~ints ~log =
  let home = Domain.DLS.get key in
  if home.held then fresh ~bits ~ints ~log None
  else begin
    let slab =
      match home.resting with
      | Some s
        when Bytes.length s.bits >= bits && Array.length s.ints >= ints
             && Array.length s.log >= log ->
          s
      | resting ->
          (* Grow every array to the larger of the old and the new
             request, so graphs of alternating sizes settle on one slab. *)
          let at_least f n = match resting with Some s -> max (f s) n | None -> n in
          let s =
            fresh
              ~bits:(at_least (fun s -> Bytes.length s.bits) bits)
              ~ints:(at_least (fun s -> Array.length s.ints) ints)
              ~log:(at_least (fun s -> Array.length s.log) log)
              (Some home)
          in
          home.resting <- Some s;
          s
    in
    home.held <- true;
    incr (Domain.DLS.get held_count);
    slab
  end

let release slab =
  match slab.home with
  | None -> ()
  | Some home ->
      home.held <- false;
      decr (Domain.DLS.get held_count)

let log_set slab i x =
  if i >= Array.length slab.log then begin
    let grown = Array.make (max 64 (2 * i)) 0 in
    Array.blit slab.log 0 grown 0 (Array.length slab.log);
    slab.log <- grown
  end;
  Array.unsafe_set slab.log i x

let leases_held () = !(Domain.DLS.get held_count)
