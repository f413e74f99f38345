(* Supervision and checkpointing are ambient process state installed by
   the CLI. Unless one of them is on, a run takes the plain [Pool] path
   and keeps its exact cost profile. *)

let chunk_size = 4

(* A quota's ordered frontier: how many leading chunks have completed
   and how many counted cells they hold. Published whole through one
   atomic, so a chunk reads both halves of the same state. *)
type frontier = { chunks : int; counted : int }

let run ?jobs ~key ~codec ~count ?quota compute =
  if count < 0 then invalid_arg "Runner.run: negative count";
  let n_chunks = (count + chunk_size - 1) / chunk_size in
  let length c = Stdlib.min count ((c + 1) * chunk_size) - (c * chunk_size) in
  let cell i =
    if Engine_par.Supervisor.watchdog_armed () then Engine_par.Supervisor.poll ();
    compute i
  in
  let counts = match quota with Some (_, counts) -> counts | None -> fun _ -> false in
  let tally cells = Array.fold_left (fun k x -> if counts x then k + 1 else k) 0 cells in
  (* [enough c own]: chunk [c], holding [own] counted cells, completes
     the quota — every earlier chunk has completed and the frontier's
     count plus [own] reaches it. [completed c cells] is the per-chunk
     completion callback, called in index order on the sequential path
     and in any order on the parallel one: it advances the frontier over
     every chunk it now reaches and answers whether dispensing stops, on
     the count over all completed chunks. *)
  let enough, completed =
    match quota with
    | None -> ((fun _ _ -> false), fun _ _ -> false)
    | Some (n, _) ->
        if n < 1 then invalid_arg "Runner.run: quota below 1";
        let frontier = Atomic.make { chunks = 0; counted = 0 } in
        let lock = Mutex.create () in
        let waiting = Hashtbl.create 8 in
        let total = ref 0 in
        let enough c own =
          let f = Atomic.get frontier in
          f.chunks = c && f.counted + own >= n
        in
        let completed c cells =
          let k = tally cells in
          Mutex.protect lock (fun () ->
              total := !total + k;
              Hashtbl.replace waiting c k;
              let rec advance f =
                match Hashtbl.find_opt waiting f.chunks with
                | Some k ->
                    Hashtbl.remove waiting f.chunks;
                    advance { chunks = f.chunks + 1; counted = f.counted + k }
                | None -> Atomic.set frontier f
              in
              advance (Atomic.get frontier);
              !total >= n)
        in
        (enough, completed)
  in
  (* Chunk [c] from its first cells [prefix] (none for a fresh chunk):
     the rest computed one at a time until the chunk is whole or holds
     enough. A fresh chunk computes at least one cell. *)
  let work ?(prefix = [||]) c =
    let lo = c * chunk_size and len = length c in
    let rec go k own cells =
      if k = len || (k > 0 && enough c own) then Array.of_list (List.rev cells)
      else
        let x = cell (lo + k) in
        go (k + 1) (if counts x then own + 1 else own) (x :: cells)
    in
    go (Array.length prefix) (tally prefix) (List.rev (Array.to_list prefix))
  in
  let until (c, cells) = completed c cells in
  let plan = Faultsim.Plan.ambient () in
  if not (Engine_par.Supervisor.armed () || plan <> None || Checkpoint.active ())
  then
    ( Array.map
        (fun (_, cells) -> Some cells)
        (Engine_par.Pool.collect_prefix ?jobs ~limit:n_chunks ~until (fun c ->
             (c, work c))),
      Engine_par.Supervisor.empty_summary )
  else begin
    (* Forced here, on the calling domain, before any worker runs. *)
    let key =
      if Checkpoint.active () then Some (Checkpoint.digest_key (Lazy.force key))
      else None
    in
    (* A resume passes the journal's in-order prefix through the
       frontier here, before dispatch: domains racing through restored
       chunks could otherwise dispense a chunk past the one that
       completes the quota, compute it and append it. *)
    let rec restore c restored =
      match key with
      | Some key when c < n_chunks -> (
          match Checkpoint.lookup codec ~key ~chunk:c with
          | Some cells when completed c cells -> (List.rev (cells :: restored), true)
          | Some cells -> restore (c + 1) (cells :: restored)
          | None -> (List.rev restored, false))
      | Some _ | None -> (List.rev restored, false)
    in
    let restored, stopped = restore 0 [] in
    (* A journaled chunk is taken as it is when whole. A shortened one
       restored after a gap holds enough only if every chunk before it
       completes in this run too; until the frontier shows that, its
       remaining cells are computed and the longer chunk appended. *)
    let work =
      match key with
      | None -> fun c -> work c
      | Some key ->
          fun c ->
            let prefix =
              Option.value (Checkpoint.lookup codec ~key ~chunk:c) ~default:[||]
            in
            let cells = work ~prefix c in
            if Array.length cells > Array.length prefix then
              Checkpoint.store codec ~key ~chunk:c cells;
            cells
    in
    let outcomes, summary =
      if stopped then ([||], Engine_par.Supervisor.empty_summary)
      else
        Engine_par.Supervisor.collect_prefix ?jobs
          ?policy:(Engine_par.Supervisor.current_policy ())
          ?inject:(Option.map Faultsim.Plan.injector plan)
          ~first:(List.length restored) ~limit:n_chunks ~until (fun c ->
            (c, work c))
    in
    ( Array.append
        (Array.of_list (List.map Option.some restored))
        (Array.map
           (function
             | Engine_par.Supervisor.Completed (_, cells) -> Some cells
             | Engine_par.Supervisor.Quarantined _ -> None)
           outcomes),
      summary )
  end

let cell chunks i =
  Option.map (fun cells -> cells.(i mod chunk_size)) chunks.(i / chunk_size)

let grid ?jobs ~name stream ~cells ~trials compute =
  if cells < 0 || trials < 0 then invalid_arg "Runner.grid: negative shape";
  let key =
    lazy
      (Printf.sprintf "%s;seed=%Ld;cells=%d;trials=%d;chunk=%d" name
         (Prng.Stream.seed stream) cells trials chunk_size)
  in
  let chunks, _faults =
    run ?jobs ~key ~codec:Checkpoint.floats ~count:(cells * trials) (fun i ->
        compute (i / trials) (i mod trials))
  in
  Array.init cells (fun c ->
      List.init trials (fun t -> cell chunks ((c * trials) + t))
      |> List.filter_map Fun.id |> Array.of_list)

let mean rows i =
  Array.fold_left (fun total row -> total +. row.(i)) 0.0 rows
  /. float_of_int (Array.length rows)
