(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), runs the ablation studies of DESIGN.md, and
   finishes with Bechamel micro-benchmarks of the implementation's hot
   paths.

   Figures 8 and 10 share one parameter sweep (latency and throughput of
   the same runs), as do figures 9 and 11, so the harness executes two
   sweeps and prints four figures.

   Durations are virtual: each point simulates [warmup + measure] seconds
   of cluster time. Wall-clock for the whole harness is a couple of
   minutes. Pass --quick to shrink the windows (coarser confidence
   intervals, same shapes). *)

open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats

let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let warmup_s = if quick then 0.5 else 1.0
let measure_s = if quick then 1.5 else 4.0

(* --metrics-out FILE / --trace-out FILE: observe the whole harness through
   one sink (counters and histograms accumulate across every point) and
   dump it as JSONL at the end. Without --trace-out no spans are retained,
   so metrics-only observation stays cheap over the full run. *)
let flag_value name =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let metrics_out = flag_value "--metrics-out"
let trace_out = flag_value "--trace-out"

(* --json-out FILE: skip the printed harness and instead emit a
   machine-readable benchmark report (median + IQR over repeated seeded
   runs for latency and throughput per stack, plus the critical-path
   latency breakdown) for [repro compare]. --smoke shrinks the windows to
   CI size. *)
let json_out = flag_value "--json-out"
let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv

(* --jobs N: run independent simulation points on a domain pool of N
   workers (default: cores - 1, min 1). Results, printed output and JSONL
   exports are byte-identical whatever N is — each point is a sealed
   virtual-time simulation with a private Obs sink, collected in task
   order ([Repro_workload.Parmap]); --jobs 1 takes the exact sequential
   code path. *)
let jobs =
  match flag_value "--jobs" with
  | Some v -> (
    match int_of_string_opt v with
    | Some j when j >= 1 -> j
    | Some _ | None ->
      Fmt.epr "bench: --jobs expects a positive integer, got %S@." v;
      exit 2)
  | None -> Repro_parallel.Pool.default_jobs ()

(* --snapshot-every MS: run each report cell through the replay recorder
   (lib/replay) at this virtual-millisecond cadence, writing each frame
   log to a throwaway temp file. Frames are taken between engine slices,
   so every simulated number is identical to the unrecorded run; what the
   flag buys is the recording {e overhead} measurement — the
   snapshots_taken / snapshot_bytes / restore_count counters land in
   bench_meta (timing-class, stripped like wallclock_s) and `repro
   compare` reports them. 0 (default) takes the exact unrecorded path. *)
let snapshot_every_ns =
  match flag_value "--snapshot-every" with
  | None -> 0
  | Some v -> (
    match float_of_string_opt v with
    | Some ms when ms >= 0.0 -> int_of_float (ms *. 1e6)
    | Some _ | None ->
      Fmt.epr "bench: --snapshot-every expects milliseconds >= 0, got %S@." v;
      exit 2)

let obs =
  match (metrics_out, trace_out) with
  | None, None -> Repro_obs.Obs.noop
  | _ ->
    (* Fail on an unwritable path now, not after the whole harness. *)
    List.iter
      (fun out -> Option.iter (fun path -> close_out (open_out path)) out)
      [ metrics_out; trace_out ];
    if trace_out = None then Repro_obs.Obs.create ~max_events:0 ()
    else Repro_obs.Obs.create ()

let kind_name = function
  | Replica.Modular -> "modular"
  | Replica.Monolithic -> "monolithic"
  | Replica.Indirect -> "indirect"
let both_kinds = [ Replica.Modular; Replica.Monolithic ]
let both_ns = [ 3; 7 ]
let loads = [ 250.0; 500.0; 1000.0; 2000.0; 3000.0; 4000.0; 5000.0; 7000.0 ]
let sizes = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 ]

let run_point ?params ?(obs = obs) ~kind ~n ~load ~size () =
  Experiment.run ~obs
    (Experiment.config ~kind ~n ~offered_load:load ~size ~warmup_s ~measure_s ?params ())

(* Fan a list of independent points over the pool, each with a private
   sink absorbed back into the harness-wide [obs] in point order. Every
   sweep below builds its point list first, maps, then prints — printing
   never runs concurrently. *)
let map_points f points = Parmap.map ~jobs ~obs (fun ~obs x -> f ~obs x) points

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let section title =
  Fmt.pr "@.=======================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "=======================================================================@."

(* ---- Load sweep: figures 8 and 10 ---- *)

let load_sweep () =
  map_points
    (fun ~obs ((n, kind), load) -> run_point ~obs ~kind ~n ~load ~size:16384 ())
    (product (product both_ns both_kinds) loads)

let print_series ~x_label ~x_of ~y_label ~y_of results =
  List.iter
    (fun n ->
      List.iter
        (fun kind ->
          Fmt.pr "# group size=%d; %s@." n (kind_name kind);
          Fmt.pr "#   %-12s %-12s@." x_label y_label;
          List.iter
            (fun (r : Experiment.result) ->
              if r.config.Experiment.n = n && r.config.Experiment.kind = kind then
                Fmt.pr "    %-12s %-12s@." (x_of r) (y_of r))
            results)
        both_kinds)
    both_ns

let latency_of (r : Experiment.result) =
  Fmt.str "%.3f ±%.3f" r.early_latency_ms.Stats.mean r.early_latency_ms.Stats.ci95

let figure_8_and_10 () =
  let results = load_sweep () in
  section
    "Figure 8: early latency (ms) vs offered load (msgs/s), message size 16384 bytes";
  print_series ~x_label:"load"
    ~x_of:(fun r -> Fmt.str "%.0f" r.config.Experiment.offered_load)
    ~y_label:"latency(ms)" ~y_of:latency_of results;
  section
    "Figure 10: throughput (msgs/s) vs offered load (msgs/s), message size 16384 bytes";
  print_series ~x_label:"load"
    ~x_of:(fun r -> Fmt.str "%.0f" r.config.Experiment.offered_load)
    ~y_label:"throughput"
    ~y_of:(fun r -> Fmt.str "%.1f" r.throughput)
    results;
  results

let size_sweep () =
  map_points
    (fun ~obs ((n, kind), size) -> run_point ~obs ~kind ~n ~load:2000.0 ~size ())
    (product (product both_ns both_kinds) sizes)

let figure_9_and_11 () =
  let results = size_sweep () in
  section "Figure 9: early latency (ms) vs message size (bytes), offered load 2000 msgs/s";
  print_series ~x_label:"size"
    ~x_of:(fun r -> string_of_int r.config.Experiment.size)
    ~y_label:"latency(ms)" ~y_of:latency_of results;
  section
    "Figure 11: throughput (msgs/s) vs message size (bytes), offered load 2000 msgs/s";
  print_series ~x_label:"size"
    ~x_of:(fun r -> string_of_int r.config.Experiment.size)
    ~y_label:"throughput"
    ~y_of:(fun r -> Fmt.str "%.1f" r.throughput)
    results;
  results

(* ---- Supplementary: saturated small-message sweep ----

   At the paper's 2000 msgs/s operating point their 2005-era JVM cluster
   was CPU-saturated even for tiny messages (99% CPU above 500 msgs/s);
   our calibrated cluster is not, so the small-message latency gap of
   Fig. 9 only fully opens at saturating loads. This extra series shows
   the same comparison with the offered load high enough to saturate. *)

let figure_9_saturated () =
  section
    "Supplementary S9: early latency (ms) vs message size, saturating load (8000 msgs/s)";
  let results =
    map_points
      (fun ~obs ((n, kind), size) -> run_point ~obs ~kind ~n ~load:8000.0 ~size ())
      (product (product both_ns both_kinds) [ 64; 512; 4096; 16384 ])
  in
  print_series ~x_label:"size"
    ~x_of:(fun r -> string_of_int r.config.Experiment.size)
    ~y_label:"latency(ms)" ~y_of:latency_of results;
  List.iter
    (fun n ->
      let find kind =
        List.find_opt
          (fun (r : Experiment.result) ->
            r.config.Experiment.kind = kind && r.config.Experiment.n = n
            && r.config.Experiment.size = 64)
          results
      in
      match (find Replica.Modular, find Replica.Monolithic) with
      | Some m, Some mono ->
        Fmt.pr "n=%d saturated 64 B: monolithic latency %.1f%% lower (paper: ~50%%)@." n
          (100.0
          *. (1.0 -. (mono.early_latency_ms.Stats.mean /. m.early_latency_ms.Stats.mean))
          )
      | _ -> ())
    both_ns

(* ---- Headline factors (the paper's Discussion, §5.3.2) ---- *)

let headline load_results size_results =
  section "Headline comparison (paper §5.3.2 Discussion)";
  let find results ~kind ~n ~pred =
    List.find_opt
      (fun (r : Experiment.result) ->
        r.config.Experiment.kind = kind && r.config.Experiment.n = n && pred r)
      results
  in
  List.iter
    (fun n ->
      match
        ( find load_results ~kind:Replica.Modular ~n ~pred:(fun r ->
              r.config.Experiment.offered_load = 7000.0),
          find load_results ~kind:Replica.Monolithic ~n ~pred:(fun r ->
              r.config.Experiment.offered_load = 7000.0) )
      with
      | Some m, Some mono ->
        Fmt.pr
          "n=%d at saturation (16 KiB): monolithic latency %.1f%% lower, throughput \
           %.1f%% higher (paper: 30-50%% / 25-30%%)@."
          n
          (100.0
          *. (1.0 -. (mono.early_latency_ms.Stats.mean /. m.early_latency_ms.Stats.mean))
          )
          (100.0 *. ((mono.throughput /. m.throughput) -. 1.0))
      | _ -> ())
    both_ns;
  List.iter
    (fun n ->
      match
        ( find size_results ~kind:Replica.Modular ~n ~pred:(fun r ->
              r.config.Experiment.size = 64),
          find size_results ~kind:Replica.Monolithic ~n ~pred:(fun r ->
              r.config.Experiment.size = 64) )
      with
      | Some m, Some mono ->
        Fmt.pr
          "n=%d small messages (64 B): monolithic latency %.1f%% lower (paper: ~50%%)@." n
          (100.0
          *. (1.0 -. (mono.early_latency_ms.Stats.mean /. m.early_latency_ms.Stats.mean))
          )
      | _ -> ())
    both_ns

(* ---- Table T1: §5.2.1 messages per consensus ---- *)

let table_messages () =
  let results =
    map_points
      (fun ~obs (n, kind) -> run_point ~obs ~kind ~n ~load:3000.0 ~size:1024 ())
      (product both_ns both_kinds)
  in
  section "Table T1 (§5.2.1): messages sent per consensus execution";
  Fmt.pr "%-4s %-11s %-8s %-12s %-10s@." "n" "stack" "M" "analytical" "measured";
  List.iter
    (fun (r : Experiment.result) ->
      let n = r.config.Experiment.n and kind = r.config.Experiment.kind in
      let m = int_of_float (Float.round r.Experiment.mean_batch) in
      let analytical =
        match kind with
        | Replica.Modular | Replica.Indirect ->
          Repro_analysis.Model.modular_messages ~n ~m
        | Replica.Monolithic -> Repro_analysis.Model.monolithic_messages ~n
      in
      Fmt.pr "%-4d %-11s %-8.2f %-12d %-10.2f@." n (kind_name kind)
        r.Experiment.mean_batch analytical r.Experiment.msgs_per_instance)
    results;
  Fmt.pr "(worked example of §5.2.1 at n=3, M=4: modular %d vs monolithic %d)@."
    (Repro_analysis.Model.modular_messages ~n:3 ~m:4)
    (Repro_analysis.Model.monolithic_messages ~n:3)

(* ---- Table T2: §5.2.2 data overhead ---- *)

let table_data () =
  (* Below saturation so the delivered origin mix is symmetric, the
     assumption behind the closed form. *)
  let results =
    map_points
      (fun ~obs (n, kind) ->
        let r = run_point ~obs ~kind ~n ~load:1200.0 ~size:4096 () in
        (n, kind, r.Experiment.bytes_per_instance /. r.Experiment.mean_batch))
      (product both_ns both_kinds)
  in
  section "Table T2 (§5.2.2): data overhead of the modular stack";
  Fmt.pr "%-4s %-24s %-10s@." "n" "analytical (n-1)/(n+1)" "measured";
  List.iter
    (fun n ->
      let bytes kind =
        List.find_map
          (fun (n', k, b) -> if n' = n && k = kind then Some b else None)
          results
        |> Option.get
      in
      let dmod = bytes Replica.Modular and dmono = bytes Replica.Monolithic in
      Fmt.pr "%-4d %-24.3f %-10.3f@." n
        (Repro_analysis.Model.data_overhead ~n)
        ((dmod -. dmono) /. dmono))
    both_ns

(* ---- Ablation A1: which monolithic optimization buys what ---- *)

let ablation_mono () =
  let base = Params.default ~n:3 in
  let results =
    map_points
      (fun ~obs (name, mono) ->
        let params = { base with Params.mono } in
        ( name,
          run_point ~obs ~params ~kind:Replica.Monolithic ~n:3 ~load:3000.0 ~size:8192
            () ))
      Params.mono_ablations
  in
  section "Ablation A1: contribution of each monolithic optimization (n=3, 8 KiB)";
  List.iter
    (fun (name, r) -> Fmt.pr "%s@." (Experiment.ablation_row ~width:26 name r))
    results

(* ---- Ablation A2: framework dispatch cost ---- *)

let ablation_dispatch () =
  let results =
    map_points
      (fun ~obs (us, kind) ->
        let params =
          { (Params.default ~n:3) with Params.dispatch_cost = Repro_sim.Time.span_us us }
        in
        (us, kind, run_point ~obs ~params ~kind ~n:3 ~load:3000.0 ~size:1024 ()))
      (product [ 0; 2; 5; 10; 20; 50 ] both_kinds)
  in
  section "Ablation A2: framework dispatch cost per module boundary (n=3, 1 KiB)";
  List.iter
    (fun (us, kind, (r : Experiment.result)) ->
      Fmt.pr
        "dispatch %3d us | %-10s | lat %7.3f ms | tput %7.1f/s | crossings/msg %5.1f@."
        us (kind_name kind) r.early_latency_ms.Stats.mean r.throughput
        r.boundary_crossings_per_msg)
    results

(* ---- Ablation A3: flow-control window vs batch size M ---- *)

let ablation_window () =
  let results =
    map_points
      (fun ~obs (window, kind) ->
        let params = { (Params.default ~n:3) with Params.window } in
        (window, kind, run_point ~obs ~params ~kind ~n:3 ~load:3000.0 ~size:8192 ()))
      (product [ 1; 2; 4; 8; 16 ] both_kinds)
  in
  section "Ablation A3: flow-control window -> mean batch M (n=3, 8 KiB)";
  List.iter
    (fun (window, kind, (r : Experiment.result)) ->
      Fmt.pr "window %2d | %-10s | M %5.2f | lat %7.3f ms | tput %7.1f/s@." window
        (kind_name kind) r.mean_batch r.early_latency_ms.Stats.mean r.throughput)
    results

(* ---- Supplementary: topology sensitivity ----

   The paper's testbed is one switched LAN. Because the monolithic stack
   funnels everything through the coordinator (§4.2), its advantage should
   depend on where the coordinator sits — something a simulator can probe.
   Three layouts at n=4: the paper's LAN, two racks, and a remote
   coordinator. *)

let topology_study () =
  section "Supplementary S-topo: the cost of modularity across topologies (n=4, 4 KiB)";
  let open Repro_sim in
  let layouts =
    [
      ("uniform LAN (paper)", None);
      ( "two racks (50us / 2ms)",
        Some
          (Repro_net.Topology.racks ~rack_size:2 ~intra:(Time.span_us 50)
             ~inter:(Time.span_ms 2)) );
      ( "remote coordinator (2ms)",
        Some
          (Repro_net.Topology.star ~center:0 ~near:(Time.span_ms 2)
             ~far:(Time.span_us 50)) );
    ]
  in
  let cells =
    map_points
      (fun ~obs ((name, topology), kind) ->
        let params = { (Params.default ~n:4) with Params.topology } in
        (name, kind, run_point ~obs ~params ~kind ~n:4 ~load:2000.0 ~size:4096 ()))
      (product layouts both_kinds)
  in
  List.iter
    (fun (name, _) ->
      let results =
        List.filter_map
          (fun (name', kind, r) -> if name' = name then Some (kind, r) else None)
          cells
      in
      List.iter
        (fun (kind, (r : Experiment.result)) ->
          Fmt.pr "%-26s | %-10s | lat %7.3f ms | tput %7.1f/s@." name (kind_name kind)
            r.early_latency_ms.Stats.mean r.throughput)
        results;
      match results with
      | [ (_, m); (_, mono) ] ->
        Fmt.pr "%-26s | monolithic latency %.0f%% lower@." ""
          (100.0
          *. (1.0
             -. (mono.early_latency_ms.Stats.mean /. m.early_latency_ms.Stats.mean)))
      | _ -> ())
    layouts

(* ---- Supplementary: loss sensitivity ----

   The paper runs on TCP (quasi-reliable channels for free). Mounting the
   reliable-channel transport over fair-lossy links shows what that
   assumption costs when it has to be earned: retransmissions inflate both
   stacks, and the modular stack — with ~3.5x the messages per instance —
   pays proportionally more often. *)

let loss_study () =
  let results =
    map_points
      (fun ~obs (loss, kind) ->
        let params =
          {
            (Params.default ~n:3) with
            Params.transport =
              (if loss = 0.0 then Params.Tcp_like else Params.Lossy loss);
          }
        in
        (loss, kind, run_point ~obs ~params ~kind ~n:3 ~load:1000.0 ~size:1024 ()))
      (product [ 0.0; 0.01; 0.05; 0.10 ] both_kinds)
  in
  section "Supplementary S-loss: both stacks over fair-lossy links (n=3, 1 KiB)";
  List.iter
    (fun (loss, kind, (r : Experiment.result)) ->
      Fmt.pr "loss %4.1f%% | %-10s | lat %7.3f ms | tput %7.1f/s | msgs/inst %6.2f@."
        (100.0 *. loss) (kind_name kind) r.early_latency_ms.Stats.mean r.throughput
        r.msgs_per_instance)
    results

(* ---- Ablation A4: the §3.2 consensus optimizations themselves ---- *)

let ablation_consensus () =
  let results =
    map_points
      (fun ~obs (name, variant) ->
        let base = Params.default ~n:3 in
        let params =
          {
            base with
            Params.modular =
              { base.Params.modular with Params.consensus_variant = variant };
          }
        in
        ( name,
          run_point ~obs ~params ~kind:Replica.Modular ~n:3 ~load:3000.0 ~size:8192 ()
        ))
      [
        ("optimized (paper §3.2)", Params.Ct_optimized);
        ("classical CT [7]", Params.Ct_classic);
      ]
  in
  section
    "Ablation A4: optimized vs classical Chandra-Toueg in the modular stack (n=3, 8 KiB)";
  List.iter
    (fun (name, (r : Experiment.result)) ->
      Fmt.pr "%-22s | lat %7.3f ms | tput %7.1f/s | msgs/inst %5.2f | bytes/inst %8.0f@."
        name r.early_latency_ms.Stats.mean r.throughput r.msgs_per_instance
        r.bytes_per_instance)
    results

(* ---- Supplementary: the middle ground (related work [12]) ----

   Atomic broadcast by indirect consensus keeps the module boundary but
   widens the consensus interface to order message identifiers, so
   payloads travel once. It should land between the paper's two stacks on
   bytes and latency while keeping the modular message count. *)

let indirect_study () =
  let results =
    map_points
      (fun ~obs (n, kind) -> run_point ~obs ~kind ~n ~load:3000.0 ~size:8192 ())
      (product both_ns [ Replica.Modular; Replica.Indirect; Replica.Monolithic ])
  in
  section
    "Supplementary S-indirect: modular vs indirect [12] vs monolithic (8 KiB, saturating)";
  List.iter
    (fun (r : Experiment.result) ->
      Fmt.pr
        "n=%d %-10s | lat %7.3f ms | tput %7.1f/s | msgs/inst %6.2f | bytes/inst %8.0f@."
        r.config.Experiment.n
        (kind_name r.config.Experiment.kind)
        r.early_latency_ms.Stats.mean r.throughput r.msgs_per_instance
        r.bytes_per_instance)
    results

(* ---- Supplementary: the cost of modularity under faults ----

   The paper compares the stacks in good runs only (§5.1). This study
   re-measures both with a scripted fault striking the measurement window
   — coordinator crash, a 2% loss window, a healed partition — and
   reports each stack's degradation against its own fault-free baseline
   (same live heartbeat detector everywhere, so the fault is the only
   variable). See EXPERIMENTS.md S-faults. *)

let faults_study () =
  section "Supplementary S-faults: both stacks under faults (1 KiB, 1000 msgs/s)";
  let open Repro_fault in
  List.iter
    (fun n ->
      let rows = Study.run ~obs ~warmup_s ~measure_s ~jobs ~n () in
      List.iter
        (fun row ->
          Fmt.pr "%a" Study.pp_row row;
          match Study.degradation rows row with
          | Some (lat, tput) ->
            Fmt.pr " | lat x%4.2f tput x%4.2f vs fault-free@." lat tput
          | None -> Fmt.pr " | baseline@.")
        rows)
    both_ns

let adversary_study () =
  section
    "Supplementary S-adversary: robustness vs. performance under the message \
     adversary (1 KiB, 1000 msgs/s, n=3)";
  let open Repro_fault in
  let rows = Study.run_adversary ~obs ~warmup_s ~measure_s ~jobs ~n:3 () in
  List.iter
    (fun row ->
      Fmt.pr "%a" Study.pp_adversary_row row;
      match Study.adversary_degradation rows row with
      | Some (lat, tput) -> Fmt.pr " | lat x%4.2f tput x%4.2f vs off@." lat tput
      | None -> Fmt.pr " | baseline@.")
    rows

(* ---- Bechamel micro-benchmarks of hot paths ---- *)

let microbench () =
  section "Micro-benchmarks (Bechamel): implementation hot paths";
  let open Bechamel in
  let open Toolkit in
  let event_queue_bench =
    Test.make ~name:"event-queue push+pop x100"
      (Staged.stage (fun () ->
           let open Repro_sim in
           let q = Event_queue.create () in
           for i = 0 to 99 do
             ignore (Event_queue.push q ~time:(Time.of_ns (i * 7919 mod 1000)) i)
           done;
           let rec drain () =
             match Event_queue.pop q with Some _ -> drain () | None -> ()
           in
           drain ()))
  in
  let batch_bench =
    let msgs =
      List.init 64 (fun i ->
          App_msg.make ~origin:(i mod 7) ~seq:i ~size:1024 ~abcast_at:Repro_sim.Time.zero)
    in
    Test.make ~name:"batch of_list(64) + union"
      (Staged.stage (fun () ->
           let b = Batch.of_list msgs in
           ignore (Batch.union b b)))
  in
  let msg_size_bench =
    let batch =
      Batch.of_list
        (List.init 16 (fun i ->
             App_msg.make ~origin:0 ~seq:i ~size:4096 ~abcast_at:Repro_sim.Time.zero))
    in
    let msg = Msg.Propose { inst = 1; round = 1; value = batch } in
    Test.make ~name:"msg payload_bytes (16-batch)"
      (Staged.stage (fun () -> ignore (Msg.payload_bytes msg)))
  in
  let consensus_instance_bench =
    Test.make ~name:"full modular instance (n=3)"
      (Staged.stage (fun () ->
           let open Repro_sim in
           let params = Params.default ~n:3 in
           let g = Group.create ~kind:Replica.Modular ~params ~record_deliveries:false () in
           Group.abcast g 0 ~size:1024;
           ignore (Group.run_until_quiescent g ~limit:(Time.span_s 1) ())))
  in
  let mono_instance_bench =
    Test.make ~name:"full monolithic instance (n=3)"
      (Staged.stage (fun () ->
           let open Repro_sim in
           let params = Params.default ~n:3 in
           let g =
             Group.create ~kind:Replica.Monolithic ~params ~record_deliveries:false ()
           in
           Group.abcast g 0 ~size:1024;
           ignore (Group.run_until_quiescent g ~limit:(Time.span_s 1) ())))
  in
  let sim_slice_bench =
    Test.make ~name:"simulate 100ms @2000msg/s (mono)"
      (Staged.stage (fun () ->
           let open Repro_sim in
           let params = Params.default ~n:3 in
           let g =
             Group.create ~kind:Replica.Monolithic ~params ~record_deliveries:false ()
           in
           let gen = Generator.start g ~offered_load:2000.0 ~size:1024 () in
           Group.run_for g (Time.span_ms 100);
           Generator.stop gen))
  in
  let tests =
    [
      event_queue_bench;
      batch_bench;
      msg_size_bench;
      consensus_instance_bench;
      mono_instance_bench;
      sim_slice_bench;
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "%-42s %14.1f ns/run@." name est
          | Some _ | None -> Fmt.pr "%-42s (no estimate)@." name)
        analyzed)
    tests

(* ---- JSON benchmark report (--json-out) ---- *)

let all_kinds = [ Replica.Modular; Replica.Indirect; Replica.Monolithic ]

let bench_report path =
  let repeats = if smoke then 2 else 5 in
  let rep_warmup = if smoke then 0.1 else 0.5 in
  let rep_measure = if smoke then 0.3 else 2.0 in
  let load = if smoke then 500.0 else 2000.0 in
  let size = 1024 in
  let ns = if smoke then [ 3 ] else [ 3; 7 ] in
  let breakdown_load = 500.0 in
  let wall_start = Unix.gettimeofday () in
  (* The report matrix, one pool task per (n, stack, seed) cell, each
     timed individually so the meta can report the aggregate speedup
     (sequential work / wall-clock). Entry runs use Poisson arrivals: the
     paper's constant-rate workload consumes no randomness on the good
     path, so uniform-arrival repeats are seed-invariant and the report's
     IQR degenerates to 0 (see EXPERIMENTS.md) — Poisson gaps let the
     seeds actually perturb the runs the spread is computed over. *)
  let cells =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun kind -> List.init repeats (fun seed -> (n, kind, seed)))
          all_kinds)
      ns
  in
  let timed_runs =
    Repro_parallel.Pool.map ~jobs
      (fun (n, kind, seed) ->
        let t0 = Unix.gettimeofday () in
        let config =
          Experiment.config ~kind ~n ~offered_load:load ~size
            ~warmup_s:rep_warmup ~measure_s:rep_measure ~seed
            ~arrival:Generator.Poisson ()
        in
        let r, snap =
          if snapshot_every_ns > 0 then begin
            let sink = Repro_obs.Obs.create ~max_events:0 () in
            let path = Filename.temp_file "repro-bench" ".rlog" in
            let r =
              Fun.protect
                ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
                (fun () ->
                  snd
                    (Repro_replay.Replay.record_report ~obs:sink
                       ~every_ns:snapshot_every_ns ~path config))
            in
            let c = Repro_obs.Obs.counter_value sink in
            (r, (c "snapshots_taken", c "snapshot_bytes", c "restore_count"))
          end
          else (Experiment.run config, (0, 0, 0))
        in
        (n, kind, r, Unix.gettimeofday () -. t0, snap))
      cells
  in
  let sum_snap pick =
    List.fold_left (fun acc (_, _, _, _, snap) -> acc + pick snap) 0 timed_runs
  in
  let snapshots_taken = sum_snap (fun (a, _, _) -> a) in
  let snapshot_bytes = sum_snap (fun (_, b, _) -> b) in
  let restore_count = sum_snap (fun (_, _, c) -> c) in
  let entries =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun kind ->
            let runs =
              List.filter_map
                (fun (n', kind', r, _, _) ->
                  if n' = n && kind' = kind then Some r else None)
                timed_runs
            in
            let name metric = Fmt.str "%s/n%d/%s" (kind_name kind) n metric in
            [
              Repro_analysis.Bench_report.entry ~name:(name "latency_ms")
                ~unit_:"ms" ~higher_is_better:false
                (List.map
                   (fun (r : Experiment.result) ->
                     r.early_latency_ms.Stats.mean)
                   runs);
              Repro_analysis.Bench_report.entry ~name:(name "throughput")
                ~unit_:"msgs/s" ~higher_is_better:true
                (List.map (fun (r : Experiment.result) -> r.throughput) runs);
            ])
          all_kinds)
      ns
  in
  (* Sharded cells (PR 10): the same report tracks the sharding layer.
     One pool task per (stack, seed); each task runs its whole cell with
     [jobs = 1] — the pool is already saturated at task granularity and
     nesting domain pools would oversubscribe. Poisson-by-construction
     arrivals (nonhomogeneous thinning), so the seeds perturb the runs
     the spread is computed over, as in the flat matrix above. *)
  let shard_m = if smoke then 2 else 4 in
  let shard_clients = if smoke then 2_000 else 100_000 in
  let shard_load = 600.0 in
  let shard_profile =
    Repro_workload.Population.profile ~clients:shard_clients
      ~rate_per_client:
        (shard_load *. float_of_int shard_m /. float_of_int shard_clients)
      ~size ~diurnal_amp:0.25 ~cross_fraction:0.05 ()
  in
  let timed_sharded =
    Repro_parallel.Pool.map ~jobs
      (fun (kind, seed) ->
        let t0 = Unix.gettimeofday () in
        let config =
          Repro_shard.Shard.config ~kind ~shards:shard_m ~n:3
            ~profile:shard_profile ~warmup_s:rep_warmup ~measure_s:rep_measure
            ~seed ()
        in
        let r = Repro_shard.Shard.run ~jobs:1 config in
        (kind, r, Unix.gettimeofday () -. t0))
      (List.concat_map
         (fun kind -> List.init repeats (fun seed -> (kind, seed)))
         all_kinds)
  in
  let sharded_entries =
    List.concat_map
      (fun kind ->
        let runs =
          List.filter_map
            (fun (k, r, _) -> if k = kind then Some r else None)
            timed_sharded
        in
        let name metric =
          Fmt.str "sharded/%s/m%d/%s" (kind_name kind) shard_m metric
        in
        [
          Repro_analysis.Bench_report.entry ~name:(name "latency_ms")
            ~unit_:"ms" ~higher_is_better:false
            (List.map
               (fun (r : Repro_shard.Shard.result) ->
                 r.latency_ms.Stats.mean)
               runs);
          Repro_analysis.Bench_report.entry ~name:(name "throughput")
            ~unit_:"req/s" ~higher_is_better:true
            (List.map
               (fun (r : Repro_shard.Shard.result) -> r.throughput)
               runs);
        ])
      all_kinds
  in
  let entries = entries @ sharded_entries in
  (* Critical-path breakdown: one short instrumented run per stack; the
     span trace attributes every nanosecond of p1's delivery latency to a
     layer/phase, to the wire or to waiting for an instance in flight.
     Each task already builds a private sink, so the pool needs no extra
     merging here. *)
  let timed_breakdown =
    Repro_parallel.Pool.map ~jobs
      (fun kind ->
        let t0 = Unix.gettimeofday () in
        let sink = Repro_obs.Obs.create () in
        let br =
          Experiment.run ~obs:sink
            (Experiment.config ~kind ~n:3 ~offered_load:breakdown_load ~size
               ~warmup_s:rep_warmup ~measure_s:rep_measure ~seed:0 ())
        in
        let b =
          Repro_analysis.Critical_path.of_spans ~pid:0 (Repro_obs.Obs.spans sink)
        in
        let rows =
          List.map
            (fun (r : Repro_analysis.Critical_path.breakdown_row) ->
              {
                Repro_analysis.Bench_report.stack = kind_name kind;
                label = r.Repro_analysis.Critical_path.row_label;
                mean_ms = r.Repro_analysis.Critical_path.mean_ms;
                share = r.Repro_analysis.Critical_path.share;
              })
            b.Repro_analysis.Critical_path.rows
        in
        (rows, br.Experiment.events_executed, Unix.gettimeofday () -. t0))
      all_kinds
  in
  let breakdown = List.concat_map (fun (rows, _, _) -> rows) timed_breakdown in
  let wallclock_s = Unix.gettimeofday () -. wall_start in
  let task_total_s =
    List.fold_left (fun acc (_, _, _, dt, _) -> acc +. dt) 0.0 timed_runs
    +. List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0.0 timed_breakdown
    +. List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0.0 timed_sharded
  in
  (* Total simulator events driven by the harness: deterministic (a pure
     function of the report matrix), unlike the wall-clock it is divided
     by. [events_per_sec] is the engine-speed headline PERF.md tracks. *)
  let events_executed =
    List.fold_left
      (fun acc (_, _, (r : Experiment.result), _, _) ->
        acc + r.Experiment.events_executed)
      0 timed_runs
    + List.fold_left (fun acc (_, ev, _) -> acc + ev) 0 timed_breakdown
    + List.fold_left
        (fun acc (_, (r : Repro_shard.Shard.result), _) ->
          acc + r.Repro_shard.Shard.events_executed)
        0 timed_sharded
  in
  let report =
    {
      Repro_analysis.Bench_report.meta =
        [
          ("paper", "On the Cost of Modularity in Atomic Broadcast (DSN 2007)");
          ("repeats", string_of_int repeats);
          ("warmup_s", Fmt.str "%g" rep_warmup);
          ("measure_s", Fmt.str "%g" rep_measure);
          ("offered_load", Fmt.str "%g" load);
          ("breakdown_load", Fmt.str "%g" breakdown_load);
          ("size", string_of_int size);
          ("mode", (if smoke then "smoke" else "full"));
          ( "sharded_cell",
            Fmt.str "%d shards x %d clients at %g req/s per shard" shard_m
              shard_clients shard_load );
          ("events_executed", string_of_int events_executed);
          (* Timing meta: the only keys that vary between otherwise
             identical runs. The jobs-equivalence check strips exactly
             these keys before comparing reports byte-for-byte
             (events_executed above is deterministic and is NOT
             stripped). *)
          ("jobs", string_of_int jobs);
          ("wallclock_s", Fmt.str "%.3f" wallclock_s);
          ("speedup_vs_seq", Fmt.str "%.2f" (task_total_s /. wallclock_s));
          ( "events_per_sec",
            Fmt.str "%.0f" (float_of_int events_executed /. wallclock_s) );
          (* Snapshot-recording provenance (--snapshot-every): all zero
             on an unrecorded run, and stripped with the timing keys —
             recorded and unrecorded runs report the same simulation. *)
          ("snapshots_taken", string_of_int snapshots_taken);
          ("snapshot_bytes", string_of_int snapshot_bytes);
          ("restore_count", string_of_int restore_count);
        ];
      entries;
      breakdown;
    }
  in
  Repro_analysis.Bench_report.write_file path report;
  Fmt.pr "wrote benchmark report (%d entries, %d breakdown rows) to %s@."
    (List.length entries) (List.length breakdown) path

let () =
  match json_out with
  | Some path -> bench_report path
  | None ->
  Fmt.pr
    "Reproduction benchmarks: 'On the Cost of Modularity in Atomic Broadcast' (DSN 2007)@.";
  Fmt.pr "windows: warmup %.1fs + measure %.1fs of virtual time per point%s@." warmup_s
    measure_s
    (if quick then " (--quick)" else "");
  let load_results = figure_8_and_10 () in
  let size_results = figure_9_and_11 () in
  figure_9_saturated ();
  headline load_results size_results;
  table_messages ();
  table_data ();
  ablation_mono ();
  ablation_dispatch ();
  ablation_window ();
  ablation_consensus ();
  topology_study ();
  loss_study ();
  indirect_study ();
  faults_study ();
  adversary_study ();
  microbench ();
  let tags = [ ("source", "bench") ] in
  Option.iter
    (fun path ->
      Repro_obs.Jsonl.write_metrics_file ~tags path obs;
      Fmt.pr "wrote metrics JSONL to %s@." path)
    metrics_out;
  Option.iter
    (fun path ->
      Repro_obs.Jsonl.write_trace_file ~tags path obs;
      Fmt.pr "wrote trace JSONL to %s@." path)
    trace_out;
  Fmt.pr "@.done.@."
