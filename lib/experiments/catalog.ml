type experiment = {
  id : string;
  title : string;
  run : ?quick:bool -> Prng.Stream.t -> Report.t;
}

let all =
  [
    { id = E01_hypercube_phase.id; title = E01_hypercube_phase.title; run = E01_hypercube_phase.run };
    { id = E02_hypercube_poly.id; title = E02_hypercube_poly.title; run = E02_hypercube_poly.run };
    { id = E03_hypercube_exp.id; title = E03_hypercube_exp.title; run = E03_hypercube_exp.run };
    { id = E04_mesh_linear.id; title = E04_mesh_linear.title; run = E04_mesh_linear.run };
    { id = E05_mesh_threshold.id; title = E05_mesh_threshold.title; run = E05_mesh_threshold.run };
    { id = E06_double_tree_threshold.id; title = E06_double_tree_threshold.title; run = E06_double_tree_threshold.run };
    { id = E07_tree_local_vs_oracle.id; title = E07_tree_local_vs_oracle.title; run = E07_tree_local_vs_oracle.run };
    { id = E08_gnp_local.id; title = E08_gnp_local.title; run = E08_gnp_local.run };
    { id = E09_gnp_oracle.id; title = E09_gnp_oracle.title; run = E09_gnp_oracle.run };
    { id = E10_theta_lower_bound.id; title = E10_theta_lower_bound.title; run = E10_theta_lower_bound.run };
    { id = E11_hypercube_giant.id; title = E11_hypercube_giant.title; run = E11_hypercube_giant.run };
    { id = E12_expanders.id; title = E12_expanders.title; run = E12_expanders.run };
    { id = E13_chemical_stretch.id; title = E13_chemical_stretch.title; run = E13_chemical_stretch.run };
    { id = E14_hypercube_oracle.id; title = E14_hypercube_oracle.title; run = E14_hypercube_oracle.run };
    { id = E15_ablations.id; title = E15_ablations.title; run = E15_ablations.run };
    { id = E16_torus_boundary.id; title = E16_torus_boundary.title; run = E16_torus_boundary.run };
    { id = E17_path_counting.id; title = E17_path_counting.title; run = E17_path_counting.run };
    { id = E18_distributed_lookup.id; title = E18_distributed_lookup.title; run = E18_distributed_lookup.run };
    { id = E19_finite_size_scaling.id; title = E19_finite_size_scaling.title; run = E19_finite_size_scaling.run };
    { id = E20_good_vertices.id; title = E20_good_vertices.title; run = E20_good_vertices.run };
    { id = E21_small_world.id; title = E21_small_world.title; run = E21_small_world.run };
    { id = E22_adversarial.id; title = E22_adversarial.title; run = E22_adversarial.run };
    { id = E23_site_percolation.id; title = E23_site_percolation.title; run = E23_site_percolation.run };
    { id = E24_butterfly_permutation.id; title = E24_butterfly_permutation.title; run = E24_butterfly_permutation.run };
    { id = E25_clustered_faults.id; title = E25_clustered_faults.title; run = E25_clustered_faults.run };
    { id = E26_churn_degradation.id; title = E26_churn_degradation.title; run = E26_churn_degradation.run };
  ]

let find id =
  let wanted = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = wanted) all

(* Under supervision a broken experiment must not take the campaign
   down: ship a stub report and register the loss in the supervisor's
   global summary, which the CLI turns into a faults/v1 section and exit
   code 5. No rerun: faults are injected only at Runner chunk
   boundaries, where the supervisor already retries, and the rest is
   pure in the experiment's stream, so a rerun could only raise again.
   Unsupervised runs keep the historical crash barrier — an exception
   aborts the campaign, which is the right default for development. *)
let run_resilient e quick experiment_stream =
  match e.run ?quick experiment_stream with
  | report -> report
  | exception failure ->
      let message = Printexc.to_string failure in
      Engine_par.Supervisor.record_unit_failure ~unit:e.id ~message;
      Report.make ~id:e.id ~title:e.title
        ~claim:"(not evaluated: experiment failed unrecoverably)"
        ~seed:(Prng.Stream.seed experiment_stream)
        ~notes:[ Printf.sprintf "experiment failed unrecoverably: %s" message ]
        []

(* Forward a finished experiment's spooled trace to the sink in blocks
   cut at line ends, so the sink still receives whole lines. *)
let forward_spool path =
  In_channel.with_open_bin path (fun ic ->
      let block = Bytes.create 65536 in
      let rec copy carry =
        let n = In_channel.input ic block 0 (Bytes.length block) in
        if n = 0 then (if carry <> "" then Obs.Trace.write_line carry)
        else
          match Bytes.rindex_from_opt block (n - 1) '\n' with
          | None -> copy (carry ^ Bytes.sub_string block 0 n)
          | Some i ->
              Obs.Trace.write_line (carry ^ Bytes.sub_string block 0 (i + 1));
              copy (Bytes.sub_string block (i + 1) (n - i - 1))
      in
      copy "")

let run_all ?quick ?jobs ~seed () =
  let stream = Prng.Stream.create seed in
  (* One task per experiment on the shared pool; each experiment's
     stream depends only on its index, and a task that itself fans out
     trials runs them inline on its worker, so reports are identical
     for any job count.

     Tracing: experiments running concurrently would race for the trace
     sink, and pool scheduling would dictate the order of their runs in
     the file. So the trace is written in catalog order as a prefix
     advances: an experiment that starts once every earlier one has been
     written writes straight to the sink; any other spools its domain's
     trace output (Obs.Trace.with_sink) into a temporary file, which is
     forwarded to the sink and deleted once every earlier experiment has
     been written. The trace file is byte-identical for every job count,
     and at one job nothing is spooled. Spools left by a raising
     experiment are deleted too. *)
  let tracing = Obs.Trace.on () in
  let supervised =
    Engine_par.Supervisor.armed () || Faultsim.Plan.ambient () <> None
  in
  let run_one e experiment_stream =
    if supervised then run_resilient e quick experiment_stream
    else e.run ?quick experiment_stream
  in
  let lock = Mutex.create () in
  let written = ref 0 in
  let finished = Hashtbl.create 8 in
  let spools = ref [] in
  (* Under [lock]: forward every finished spool the prefix now reaches. *)
  let rec advance () =
    match Hashtbl.find_opt finished !written with
    | Some path ->
        Hashtbl.remove finished !written;
        forward_spool path;
        Sys.remove path;
        incr written;
        advance ()
    | None -> ()
  in
  let traced index run =
    if Mutex.protect lock (fun () -> !written = index) then begin
      let report = run () in
      Mutex.protect lock (fun () ->
          incr written;
          advance ());
      report
    end
    else begin
      let path = Filename.temp_file "faultroute-trace-" ".jsonl" in
      Mutex.protect lock (fun () -> spools := path :: !spools);
      let report =
        Out_channel.with_open_bin path (fun oc ->
            Obs.Trace.with_sink (Out_channel.output_string oc) run)
      in
      Mutex.protect lock (fun () ->
          Hashtbl.replace finished index path;
          advance ());
      report
    end
  in
  let indexed = Array.of_list (List.mapi (fun index e -> (index, e)) all) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun path -> if Sys.file_exists path then Sys.remove path) !spools)
    (fun () ->
      Engine_par.Pool.map ?jobs
        (fun (index, e) ->
          let experiment_stream = Prng.Stream.split stream index in
          if tracing then traced index (fun () -> run_one e experiment_stream)
          else run_one e experiment_stream)
        indexed)
  |> Array.to_list
