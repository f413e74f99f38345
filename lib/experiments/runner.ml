(* Supervision and checkpointing are ambient process state installed by
   the CLI. Unless one of them is on, a run takes the plain [Pool] path
   and keeps its exact cost profile. *)

let chunk_size = 4

let run ?jobs ~key ~codec ~count ?(until = fun _ -> false) compute =
  if count < 0 then invalid_arg "Runner.run: negative count";
  let n_chunks = (count + chunk_size - 1) / chunk_size in
  let work c =
    let lo = c * chunk_size in
    Array.init (Stdlib.min count (lo + chunk_size) - lo) (fun k ->
        if Engine_par.Supervisor.watchdog_armed () then
          Engine_par.Supervisor.poll ();
        compute (lo + k))
  in
  let plan = Faultsim.Plan.ambient () in
  if not (Engine_par.Supervisor.armed () || plan <> None || Checkpoint.active ())
  then
    ( Array.map Option.some
        (Engine_par.Pool.collect_prefix ?jobs ~limit:n_chunks ~until work),
      Engine_par.Supervisor.empty_summary )
  else begin
    (* Forced here, on the calling domain, before any worker runs. *)
    let key =
      if Checkpoint.active () then Some (Checkpoint.digest_key (Lazy.force key))
      else None
    in
    (* A resume passes the journal's in-order prefix through [until]
       here, before dispatch: domains racing through restored chunks
       could otherwise dispense a chunk past the one where [until]
       fires, compute it and append it. *)
    let rec restore c restored =
      match key with
      | Some key when c < n_chunks -> (
          match Checkpoint.lookup codec ~key ~chunk:c with
          | Some cells when until cells -> (List.rev (cells :: restored), true)
          | Some cells -> restore (c + 1) (cells :: restored)
          | None -> (List.rev restored, false))
      | Some _ | None -> (List.rev restored, false)
    in
    let restored, stopped = restore 0 [] in
    let work =
      match key with
      | None -> work
      | Some key -> (
          fun c ->
            match Checkpoint.lookup codec ~key ~chunk:c with
            | Some cells -> cells
            | None ->
                let cells = work c in
                Checkpoint.store codec ~key ~chunk:c cells;
                cells)
    in
    let outcomes, summary =
      if stopped then ([||], Engine_par.Supervisor.empty_summary)
      else
        Engine_par.Supervisor.collect_prefix ?jobs
          ?policy:(Engine_par.Supervisor.current_policy ())
          ?inject:(Option.map Faultsim.Plan.injector plan)
          ~first:(List.length restored) ~limit:n_chunks ~until work
    in
    ( Array.append
        (Array.of_list (List.map Option.some restored))
        (Array.map
           (function
             | Engine_par.Supervisor.Completed cells -> Some cells
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
