(* The instrumentation-off guard: instrumentation must cost nothing
   when it is off. Takes no arguments; exits 0 when the guard holds, 1
   when it fails, 2 on any argument. Kernel and end-to-end timings
   live in perfbench/ (its layer rows time the reveal, oracle, router
   and churn kernels); bench/pairs.py compares two checkouts with it. *)

let seed = 0xBE7CAL

(* The guard's graph goes through the registry, like the CLI and the
   examples. *)
let topo name ~size =
  match Topology.Registry.of_spec name with
  | Ok spec ->
      (Topology.Registry.build spec ~default_size:size (Prng.Stream.create seed))
        .Topology.Registry.graph
  | Error message -> failwith message

let world_seed = 0xB37CA5EL

(* Flat [u0; v0; u1; v1; ...] — boxed (int * int) tuples would put a
   pointer chase in front of every probe. *)
let edges_of graph =
  let out = ref [] in
  Topology.Graph.iter_edges graph (fun u v -> out := v :: u :: !out);
  Array.of_list (List.rev !out)

let oracle_kernel graph ~p ~source ~edges ~worlds () =
  let acc = ref 0 in
  for k = 1 to worlds do
    let world =
      Percolation.World.create graph ~p ~seed:(Prng.Coin.derive world_seed k)
    in
    (* Unrestricted sweep over a pre-collected edge array: every edge
       probed once, then re-probed three more times (the memo path
       routers lean on). The array keeps edge enumeration out of the
       measurement. *)
    let oracle =
      Percolation.Oracle.create ~policy:Percolation.Oracle.Unrestricted world ~source
    in
    let pairs = Array.length edges / 2 in
    for _pass = 1 to 4 do
      for i = 0 to pairs - 1 do
        ignore (Percolation.Oracle.probe oracle edges.(2 * i) edges.((2 * i) + 1))
      done
    done;
    acc := !acc + Percolation.Oracle.distinct_probes oracle
  done;
  !acc

(* A fixed single-threaded kernel that uses none of the library's code:
   a pointer chase through a cache-sized random cycle, then hash-table
   and list churn — the mix of perfbench's host-speed reference, scaled
   down to the guard kernel's few milliseconds. Host load slows both
   kernels of an adjacent pair alike, so their ratio holds still where
   raw times drift. *)
let reference_cycle =
  lazy
    (let size = 1 lsl 15 in
     let a = Array.init size Fun.id in
     (* Sattolo's shuffle from a fixed xorshift: one cycle through all
        slots. *)
     let s = ref 0x2545F4914F6CDD1 in
     for i = size - 1 downto 1 do
       s := !s lxor (!s lsl 13) land max_int;
       s := !s lxor (!s lsr 7);
       s := !s lxor (!s lsl 17) land max_int;
       let j = !s mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let reference_kernel () =
  let a = Lazy.force reference_cycle in
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to 600_000 do
    p := Array.unsafe_get a !p;
    acc := !acc + !p
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 12_000 do
    Hashtbl.replace h (i land 4095) (List.init 8 (fun k -> k + i));
    match Hashtbl.find_opt h ((i * 7) land 4095) with
    | Some l -> acc := !acc + List.length l
    | None -> ()
  done;
  !acc

(* The zero-cost-when-off contract, checked twice over.

   Deterministically: three instrumented runs (tracing into a null
   sink, metrics, timing spans and telemetry all armed) exercise every
   hook of the oracle-probe kernel and must each record probes; after
   each is disarmed every switch must read off, and after the three one
   kernel run must allocate exactly the minor words it allocated
   before them — a hook left installed or a flag left set shows up
   here whatever the host's load.

   Empirically: the kernel is timed with instrumentation disabled in
   three phases before the instrumented runs and three after, each
   phase 25 adjacent pairs of a reference-kernel sample and a kernel
   sample, in processor time. The phases pair up outward from the
   instrumented runs (the last before with the first after, and so
   on), so every pair brackets all three, and a pair's shift is the
   difference of its two median kernel/reference ratios, priced in
   kernel time at the mean of its two median reference times. The
   median of the three shifts must stay under a floor of
   [floor_fraction] of the kernel's own median time: a persistent
   slowdown the switches do not show. One phase slowed by host load
   moves one pair, not the verdict. *)
let floor_fraction = 0.08

let obs_guard () =
  (* A small fixed case: the guard compares timings of identical code,
     so what it needs is a kernel stable across the ~300 samples —
     larger cases drift with thermal/frequency state over that window,
     and a constant instrumentation leak shows up as a larger fraction
     of a small kernel anyway. *)
  let hyper_n = 10 in
  let graph = topo "hypercube" ~size:hyper_n in
  let edges = edges_of graph in
  let kernel =
    oracle_kernel graph ~p:(float_of_int hyper_n ** -0.3) ~source:0 ~edges ~worlds:10
  in
  (* Processor time, not wall time: a sample the scheduler preempts
     under load keeps its cost instead of gaining the wait. *)
  let time f =
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    Sys.time () -. t0
  in
  let median xs =
    let xs = Array.copy xs in
    Array.sort compare xs;
    xs.(Array.length xs / 2)
  in
  (* One phase: medians of the kernel/reference ratio, of the
     reference time and of the kernel time. *)
  let paired () =
    ignore (Sys.opaque_identity (reference_kernel ()));
    ignore (Sys.opaque_identity (kernel ()));
    let pairs =
      Array.init 25 (fun _ ->
          let reference = time reference_kernel in
          let own = time kernel in
          (own /. reference, reference, own))
    in
    ( median (Array.map (fun (r, _, _) -> r) pairs),
      median (Array.map (fun (_, r, _) -> r) pairs),
      median (Array.map (fun (_, _, k) -> k) pairs) )
  in
  let minor_words () =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (kernel ()));
    Gc.minor_words () -. before
  in
  let instrumented index =
    Obs.Trace.enable ~sink:(fun _ -> ());
    Obs.Metrics.enable ();
    Obs.Timing.enable ();
    Obs.Telemetry.enable ();
    let run = Obs.Trace.observe ~index kernel in
    Obs.Trace.disable ();
    Obs.Metrics.disable ();
    Obs.Timing.disable ();
    Obs.Telemetry.disable ();
    assert (
      not (Obs.Trace.on () || Obs.Metrics.on () || Obs.Timing.on () || Obs.Telemetry.on ()));
    Obs.Metrics.counter run.Obs.Trace.metrics "oracle.probe.fresh"
  in
  let phases = 3 in
  Printf.printf "== obs guard (oracle-probe kernel, hypercube(n=%d)) ==\n" hyper_n;
  let before = Array.init phases (fun _ -> paired ()) in
  let words_before = minor_words () in
  let probes = Array.init phases (fun i -> instrumented (i + 1)) in
  let words_after = minor_words () in
  if Array.mem 0 probes then begin
    print_endline "obs-guard: FAIL — an instrumented run recorded no probes";
    1
  end
  else if words_after <> words_before then begin
    Printf.printf
      "obs-guard: FAIL — the disabled kernel allocated %.0f minor words before \
       the instrumented runs and %.0f after\n"
      words_before words_after;
    1
  end
  else begin
    let after = Array.init phases (fun _ -> paired ()) in
    let pair k =
      let ratio_before, reference_before, _ = before.(phases - 1 - k) in
      let ratio_after, reference_after, _ = after.(k) in
      abs_float (ratio_after -. ratio_before) *. (reference_before +. reference_after) /. 2.0
    in
    let shifts = Array.init phases pair in
    let shift = median shifts in
    let own = median (Array.map (fun (_, _, k) -> k) (Array.append before after)) in
    let floor = floor_fraction *. own in
    let ratios phases =
      String.concat "/" (Array.to_list (Array.map (fun (r, _, _) -> Printf.sprintf "%.3f" r) phases))
    in
    Printf.printf
      "minor words per run: %.0f before and after\n\
       kernel/reference before: %s   after: %s\n\
       shifts: %s ms; median %.3f ms (%.1f%%) against a floor of %.3f ms (%.0f%% of \
       the kernel's median %.3f ms)\n"
      words_before (ratios before) (ratios after)
      (String.concat "/" (Array.to_list (Array.map (fun x -> Printf.sprintf "%.3f" (x *. 1e3)) shifts)))
      (shift *. 1e3) (shift /. own *. 100.0) (floor *. 1e3) (floor_fraction *. 100.0)
      (own *. 1e3);
    if shift < floor then begin
      print_endline "obs-guard: OK — instrumentation leaves the disabled path alone";
      0
    end
    else begin
      print_endline
        "obs-guard: FAIL — disabled-path cost shifted past the floor after the \
         instrumented runs";
      1
    end
  end

let () =
  if Array.length Sys.argv > 1 then begin
    Printf.eprintf "bench: unknown argument %S\nusage: bench (no arguments)\n" Sys.argv.(1);
    exit 2
  end;
  exit (obs_guard ())
