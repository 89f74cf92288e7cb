(* Command-line driver for the reproduction: run any figure or table of the
   paper's evaluation (§5), single experiments, and sweeps, with optional
   CSV output. *)

open Cmdliner
open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats

(* ---- Shared options ---- *)

let kind_conv =
  let parse = function
    | "modular" -> Ok Replica.Modular
    | "monolithic" | "mono" -> Ok Replica.Monolithic
    | "indirect" -> Ok Replica.Indirect
    | s -> Error (`Msg (Printf.sprintf "unknown stack %S (modular|monolithic|indirect)" s))
  in
  let print ppf = function
    | Replica.Modular -> Fmt.string ppf "modular"
    | Replica.Monolithic -> Fmt.string ppf "monolithic"
    | Replica.Indirect -> Fmt.string ppf "indirect"
  in
  Arg.conv (parse, print)

let kind_name = function
  | Replica.Modular -> "modular"
  | Replica.Monolithic -> "monolithic"
  | Replica.Indirect -> "indirect"

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the run.")

let warmup_arg =
  Arg.(
    value & opt float 2.0
    & info [ "warmup" ] ~docv:"S" ~doc:"Virtual seconds before measurement starts.")

let measure_arg =
  Arg.(
    value & opt float 8.0
    & info [ "measure" ] ~docv:"S" ~doc:"Virtual seconds of measurement window.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated rows instead of a table.")

(* Independent simulation runs (campaign trials, study cells, --repeats)
   fan out over a domain pool. Output is byte-identical whatever N is:
   results are collected in task order and each task observes through a
   private sink merged back in order; --jobs 1 is the exact sequential
   code path. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent simulations on $(docv) parallel domains (default: CPU \
           cores - 1, at least 1). Results and output are byte-identical for any \
           value; $(b,--jobs 1) disables parallelism entirely.")

let resolve_jobs = function
  | Some j when j >= 1 -> j
  | Some j -> Fmt.failwith "--jobs must be >= 1 (got %d)" j
  | None -> Repro_parallel.Pool.default_jobs ()

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's counters, gauges and latency histograms as JSONL to $(docv) \
           (one metric per line; see README \"Observability\").")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's protocol trace as JSONL to $(docv): one causal span per \
           line (protocol step, layer, phase and parent span), stamped with the \
           simulated clock.")

let trace_max_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-max-events" ] ~docv:"N"
        ~doc:
          "Retain at most $(docv) spans in memory; \
           later spans are counted but dropped, and the JSONL export ends \
           with a $(i,trace_truncated) marker carrying the drop count. \
           Bounds the footprint of tracing long runs.")

(* Build a sink iff an output file was requested, observe [f] through it,
   then flush the requested files. With no trace file the sink retains no
   spans, so long metric-only runs stay cheap. *)
let with_obs ?trace_max_events ~metrics_out ~trace_out ~tags f =
  match (metrics_out, trace_out) with
  | None, None -> f Repro_obs.Obs.noop
  | _ ->
    (* Fail on an unwritable path now, not after the whole simulation. *)
    List.iter
      (fun out -> Option.iter (fun path -> close_out (open_out path)) out)
      [ metrics_out; trace_out ];
    let obs =
      match trace_out with
      | None -> Repro_obs.Obs.create ~max_events:0 ()
      | Some _ -> Repro_obs.Obs.create ?max_events:trace_max_events ()
    in
    let result = f obs in
    Option.iter
      (fun path -> Repro_obs.Jsonl.write_metrics_file ~tags path obs)
      metrics_out;
    Option.iter (fun path -> Repro_obs.Jsonl.write_trace_file ~tags path obs) trace_out;
    result

let snapshot_every_arg =
  Arg.(
    value & opt float 0.0
    & info [ "snapshot-every" ] ~docv:"MS"
        ~doc:
          "Record a whole-world snapshot frame every $(docv) virtual milliseconds to \
           the $(b,--snapshot-out) frame log. Frames are taken between engine slices, \
           so the recorded run's results are identical to the unrecorded run's. 0 \
           (default) disables recording.")

let snapshot_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-out" ] ~docv:"FILE"
        ~doc:
          "Frame-log path for $(b,--snapshot-every); resume, verify or bisect it with \
           $(b,repro replay) / $(b,repro bisect).")

(* Both snapshot flags or neither; the cadence in virtual ns. *)
let snapshot_request ~snapshot_every ~snapshot_out =
  match (snapshot_every > 0.0, snapshot_out) with
  | false, Some _ -> Error "--snapshot-out needs --snapshot-every MS > 0"
  | true, None -> Error "--snapshot-every needs --snapshot-out FILE"
  | true, Some path -> Ok (Some (int_of_float (snapshot_every *. 1e6), path))
  | false, None -> Ok None

let run_one ~kind ~n ~load ~size ~warmup ~measure ~seed =
  Experiment.run
    (Experiment.config ~kind ~n ~offered_load:load ~size ~warmup_s:warmup
       ~measure_s:measure ~seed ())

let csv_header =
  "stack,n,offered_load,size,latency_ms,latency_ci95,throughput,mean_batch,msgs_per_instance,bytes_per_instance,cpu"

let csv_row (r : Experiment.result) =
  Printf.sprintf "%s,%d,%.0f,%d,%.4f,%.4f,%.2f,%.2f,%.2f,%.1f,%.3f"
    (kind_name r.config.Experiment.kind)
    r.config.Experiment.n r.config.Experiment.offered_load r.config.Experiment.size
    r.early_latency_ms.Stats.mean r.early_latency_ms.Stats.ci95 r.throughput r.mean_batch
    r.msgs_per_instance r.bytes_per_instance r.cpu_utilization

let emit ~csv results =
  if csv then begin
    print_endline csv_header;
    List.iter (fun r -> print_endline (csv_row r)) results
  end
  else List.iter (fun r -> Fmt.pr "%a@." Experiment.pp_result r) results

let sweep ~kinds ~ns ~loads ~sizes ~warmup ~measure ~seed =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun kind ->
          List.concat_map
            (fun load ->
              List.map
                (fun size -> run_one ~kind ~n ~load ~size ~warmup ~measure ~seed)
                sizes)
            loads)
        kinds)
    ns

(* ---- run: one experiment ---- *)

let run_cmd =
  let n_arg =
    Arg.(value & opt int 3 & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Group size (3 or 7 in the paper).")
  in
  let kind_arg =
    Arg.(
      value
      & opt kind_conv Replica.Monolithic
      & info [ "stack" ] ~docv:"STACK" ~doc:"Which implementation: modular or monolithic.")
  in
  let load_arg =
    Arg.(
      value & opt float 2000.0
      & info [ "load" ] ~docv:"MSGS/S" ~doc:"Offered load, messages per second globally.")
  in
  let size_arg =
    Arg.(value & opt int 16384 & info [ "size" ] ~docv:"BYTES" ~doc:"Message payload size.")
  in
  let classic_arg =
    Arg.(
      value & flag
      & info [ "classic-consensus" ]
          ~doc:
            "Mount the classical (non-optimized) Chandra-Toueg consensus in the modular \
             stack instead of the §3.2-optimized variant.")
  in
  let repeats_arg =
    Arg.(
      value & opt int 1
      & info [ "repeats" ] ~docv:"K"
          ~doc:"Average over K executions with consecutive seeds (pooled latency CI).")
  in
  let loss_arg =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:
            "Per-copy message loss probability; > 0 mounts the reliable-channel              transport over fair-lossy links.")
  in
  let run kind n load size warmup measure seed csv classic repeats loss metrics_out
      trace_out trace_max_events jobs snapshot_every snapshot_out =
    let params =
      let p = Params.default ~n in
      let p =
        if loss > 0.0 then { p with Params.transport = Params.Lossy loss } else p
      in
      if classic then
        {
          p with
          Params.modular =
            { p.Params.modular with Params.consensus_variant = Params.Ct_classic };
        }
      else p
    in
    let config =
      Experiment.config ~kind ~n ~offered_load:load ~size ~warmup_s:warmup
        ~measure_s:measure ~seed ~params ()
    in
    let tags = [ ("stack", kind_name kind); ("n", string_of_int n) ] in
    match snapshot_request ~snapshot_every ~snapshot_out with
    | Error e -> `Error (false, e)
    | Ok (Some _) when repeats <> 1 ->
      `Error (false, "--snapshot-every records a single run; drop --repeats")
    | Ok (Some (every_ns, path)) ->
      let result =
        with_obs ?trace_max_events ~metrics_out ~trace_out ~tags (fun obs ->
            snd (Repro_replay.Replay.record_report ~obs ~every_ns ~path config))
      in
      emit ~csv [ result ];
      Fmt.epr "recorded frame log to %s@." path;
      `Ok ()
    | Ok None ->
      let result =
        with_obs ?trace_max_events ~metrics_out ~trace_out ~tags (fun obs ->
            Experiment.run_repeated ~repeats ~jobs:(resolve_jobs jobs) ~obs config)
      in
      emit ~csv [ result ];
      `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single benchmark configuration.")
    Term.(
      ret
        (const run $ kind_arg $ n_arg $ load_arg $ size_arg $ warmup_arg $ measure_arg
       $ seed_arg $ csv_arg $ classic_arg $ repeats_arg $ loss_arg $ metrics_out_arg
       $ trace_out_arg $ trace_max_arg $ jobs_arg $ snapshot_every_arg
       $ snapshot_out_arg))

(* ---- figures ---- *)

let paper_loads = [ 250.0; 500.0; 1000.0; 2000.0; 3000.0; 4000.0; 5000.0; 7000.0 ]
let paper_sizes = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 ]
let both_kinds = [ Replica.Modular; Replica.Monolithic ]
let both_ns = [ 3; 7 ]

let figure_cmd =
  let fig_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"FIGURE" ~doc:"Paper figure number: 8, 9, 10 or 11.")
  in
  let run fig warmup measure seed csv =
    let results =
      match fig with
      | 8 | 10 ->
        sweep ~kinds:both_kinds ~ns:both_ns ~loads:paper_loads ~sizes:[ 16384 ] ~warmup
          ~measure ~seed
      | 9 | 11 ->
        sweep ~kinds:both_kinds ~ns:both_ns ~loads:[ 2000.0 ] ~sizes:paper_sizes ~warmup
          ~measure ~seed
      | other -> Fmt.failwith "unknown figure %d (the paper has figures 8-11)" other
    in
    emit ~csv results;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:
         "Regenerate the data of one of the paper's figures (8: latency vs load, 9: \
          latency vs size, 10: throughput vs load, 11: throughput vs size).")
    Term.(ret (const run $ fig_arg $ warmup_arg $ measure_arg $ seed_arg $ csv_arg))

(* ---- tables (analytical §5.2 + measured) ---- *)

let tables_cmd =
  let run warmup measure seed =
    Fmt.pr "== §5.2.1 Messages per consensus (M = measured mean batch) ==@.";
    Fmt.pr "%-6s %-11s %-6s %-10s %-10s@." "n" "stack" "M" "analytical" "measured";
    List.iter
      (fun n ->
        List.iter
          (fun kind ->
            let r = run_one ~kind ~n ~load:3000.0 ~size:1024 ~warmup ~measure ~seed in
            let m = int_of_float (Float.round r.Experiment.mean_batch) in
            let analytical =
              match kind with
              | Replica.Modular | Replica.Indirect ->
                Repro_analysis.Model.modular_messages ~n ~m
              | Replica.Monolithic -> Repro_analysis.Model.monolithic_messages ~n
            in
            Fmt.pr "%-6d %-11s %-6.1f %-10d %-10.1f@." n (kind_name kind)
              r.Experiment.mean_batch analytical r.Experiment.msgs_per_instance)
          both_kinds)
      both_ns;
    Fmt.pr "@.== §5.2.2 Data overhead: (Data_mod - Data_mono) / Data_mono ==@.";
    (* Measured just below saturation, where the delivered origin mix is
       symmetric — the assumption behind the closed form. At saturation the
       coordinator's zero-diffusion-cost messages are over-represented and
       the measured overhead drifts up (n=3) or down (n=7); see
       EXPERIMENTS.md. *)
    Fmt.pr "%-6s %-22s %-10s@." "n" "analytical (n-1)/(n+1)" "measured";
    List.iter
      (fun n ->
        let bytes kind =
          let r = run_one ~kind ~n ~load:1200.0 ~size:4096 ~warmup ~measure ~seed in
          r.Experiment.bytes_per_instance /. r.Experiment.mean_batch
        in
        let dmod = bytes Replica.Modular and dmono = bytes Replica.Monolithic in
        Fmt.pr "%-6d %-22.2f %-10.2f@." n
          (Repro_analysis.Model.data_overhead ~n)
          ((dmod -. dmono) /. dmono))
      both_ns
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Reproduce the analytical evaluation of §5.2, analytical vs measured.")
    Term.(const run $ warmup_arg $ measure_arg $ seed_arg)

(* ---- ablations ---- *)

let ablation_cmd =
  let run warmup measure seed csv =
    let base = Params.default ~n:3 in
    if csv then
      print_endline
        "variant,latency_ms,throughput,msgs_per_instance,bytes_per_instance";
    List.iter
      (fun (name, mono) ->
        let params = { base with Params.mono } in
        let r =
          Experiment.run
            (Experiment.config ~kind:Replica.Monolithic ~n:3 ~offered_load:3000.0
               ~size:8192 ~warmup_s:warmup ~measure_s:measure ~seed ~params ())
        in
        if csv then
          Printf.printf "%s,%.3f,%.1f,%.2f,%.0f\n" name
            r.Experiment.early_latency_ms.Stats.mean r.Experiment.throughput
            r.Experiment.msgs_per_instance r.Experiment.bytes_per_instance
        else
          Fmt.pr "%-24s | lat %7.3f ms | tput %7.1f/s | msgs/inst %5.2f | bytes/inst %8.0f@."
            name r.Experiment.early_latency_ms.Stats.mean r.Experiment.throughput
            r.Experiment.msgs_per_instance r.Experiment.bytes_per_instance)
      Params.mono_ablations
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Measure the contribution of each monolithic optimization (§4.1, §4.2, §4.3) \
          by disabling them one at a time (n=3, 8 KiB, saturating load).")
    Term.(const run $ warmup_arg $ measure_arg $ seed_arg $ csv_arg)

(* ---- dispatch-cost ablation ---- *)

let dispatch_cmd =
  let run warmup measure seed csv =
    let costs_us = [ 0; 2; 5; 10; 20; 50 ] in
    if csv then print_endline "dispatch_us,stack,latency_ms,throughput";
    List.iter
      (fun us ->
        List.iter
          (fun kind ->
            let base = Params.default ~n:3 in
            let params =
              { base with Params.dispatch_cost = Repro_sim.Time.span_us us }
            in
            let r =
              Experiment.run
                (Experiment.config ~kind ~n:3 ~offered_load:3000.0 ~size:1024
                   ~warmup_s:warmup ~measure_s:measure ~seed ~params ())
            in
            if csv then
              Printf.printf "%d,%s,%.3f,%.1f\n" us (kind_name kind)
                r.Experiment.early_latency_ms.Stats.mean r.Experiment.throughput
            else
              Fmt.pr "dispatch %3d us | %-10s | lat %7.3f ms | tput %7.1f/s@." us
                (kind_name kind) r.Experiment.early_latency_ms.Stats.mean
                r.Experiment.throughput)
          both_kinds)
      costs_us
  in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:
         "Sweep the framework's per-boundary dispatch cost to separate framework \
          overhead from algorithmic overhead (n=3, 1 KiB, saturating load).")
    Term.(const run $ warmup_arg $ measure_arg $ seed_arg $ csv_arg)

(* ---- window sweep (flow control → M) ---- *)

let window_cmd =
  let run warmup measure seed csv =
    if csv then print_endline "window,stack,mean_batch,latency_ms,throughput";
    List.iter
      (fun window ->
        List.iter
          (fun kind ->
            let params = { (Params.default ~n:3) with Params.window } in
            let r =
              Experiment.run
                (Experiment.config ~kind ~n:3 ~offered_load:3000.0 ~size:8192
                   ~warmup_s:warmup ~measure_s:measure ~seed ~params ())
            in
            if csv then
              Printf.printf "%d,%s,%.2f,%.3f,%.1f\n" window (kind_name kind)
                r.Experiment.mean_batch r.Experiment.early_latency_ms.Stats.mean
                r.Experiment.throughput
            else
              Fmt.pr "window %2d | %-10s | M %5.2f | lat %7.3f ms | tput %7.1f/s@." window
                (kind_name kind) r.Experiment.mean_batch
                r.Experiment.early_latency_ms.Stats.mean r.Experiment.throughput)
          both_kinds)
      [ 1; 2; 4; 8; 16 ]
  in
  Cmd.v
    (Cmd.info "window"
       ~doc:
         "Sweep the flow-control window to show how it sets the mean consensus batch \
          size M (the paper fixes M ≈ 4) and the latency/throughput trade-off.")
    Term.(const run $ warmup_arg $ measure_arg $ seed_arg $ csv_arg)

(* ---- plot: figure data + gnuplot script ---- *)

let plot_cmd =
  let fig_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"FIGURE" ~doc:"Paper figure number: 8, 9, 10 or 11.")
  in
  let out_arg =
    Arg.(
      value & opt string "plots"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for the .dat and .gp files.")
  in
  let run fig out warmup measure seed =
    let results =
      match fig with
      | 8 | 10 ->
        sweep ~kinds:both_kinds ~ns:both_ns ~loads:paper_loads ~sizes:[ 16384 ] ~warmup
          ~measure ~seed
      | 9 | 11 ->
        sweep ~kinds:both_kinds ~ns:both_ns ~loads:[ 2000.0 ] ~sizes:paper_sizes ~warmup
          ~measure ~seed
      | other -> Fmt.failwith "unknown figure %d (the paper has figures 8-11)" other
    in
    let x_of (r : Experiment.result) =
      match fig with
      | 8 | 10 -> r.config.Experiment.offered_load
      | _ -> float_of_int r.config.Experiment.size
    in
    let y_of (r : Experiment.result) =
      match fig with
      | 8 | 9 -> r.Experiment.early_latency_ms.Stats.mean
      | _ -> r.Experiment.throughput
    in
    let yerr_of (r : Experiment.result) =
      match fig with 8 | 9 -> r.Experiment.early_latency_ms.Stats.ci95 | _ -> 0.0
    in
    (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let series =
      List.concat_map
        (fun n ->
          List.map
            (fun kind ->
              let name = Printf.sprintf "fig%d_n%d_%s" fig n (kind_name kind) in
              let path = Filename.concat out (name ^ ".dat") in
              let oc = open_out path in
              List.iter
                (fun (r : Experiment.result) ->
                  if r.config.Experiment.n = n && r.config.Experiment.kind = kind then
                    Printf.fprintf oc "%g %g %g\n" (x_of r) (y_of r) (yerr_of r))
                results;
              close_out oc;
              (name, n, kind))
            both_kinds)
        both_ns
    in
    let gp = Filename.concat out (Printf.sprintf "fig%d.gp" fig) in
    let oc = open_out gp in
    let x_label, y_label, logx =
      match fig with
      | 8 -> ("offered load (msgs/sec)", "early latency (msecs)", false)
      | 9 -> ("message size (bytes)", "early latency (msecs)", true)
      | 10 -> ("offered load (msgs/sec)", "throughput (msgs/sec)", false)
      | _ -> ("message size (bytes)", "throughput (msgs/sec)", true)
    in
    Printf.fprintf oc "set terminal pngcairo size 900,600\nset output 'fig%d.png'\n" fig;
    Printf.fprintf oc "set xlabel '%s'\nset ylabel '%s'\nset key top left\n" x_label
      y_label;
    if logx then output_string oc "set logscale x 2\n";
    (* Lines with points; error bars for the latency figures. *)
    let style = match fig with 8 | 9 -> "yerrorlines" | _ -> "linespoints" in
    let cols = match fig with 8 | 9 -> "1:2:3" | _ -> "1:2" in
    let plots =
      List.map
        (fun (name, n, kind) ->
          Printf.sprintf "'%s.dat' using %s title 'group size=%d; %s' with %s" name cols
            n (kind_name kind) style)
        series
    in
    Printf.fprintf oc "plot %s\n" (String.concat ", \\\n     " plots);
    close_out oc;
    Fmt.pr "wrote %d data files and %s (run: gnuplot %s)@." (List.length series) gp gp;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "plot"
       ~doc:"Regenerate a figure's data as gnuplot-ready .dat files plus a .gp script.")
    Term.(ret (const run $ fig_arg $ out_arg $ warmup_arg $ measure_arg $ seed_arg))

(* ---- nemesis: one scripted fault run ---- *)

let fault_plan_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Declarative fault schedule to execute, one step per line, e.g. \"at 100ms \
           crash p1\" (see DESIGN.md §9 for the grammar). The plan is parsed and \
           validated before the simulation starts.")

(* Reject a bad plan before any simulation runs: unreadable file, unknown
   action, non-monotone timestamps, out-of-range pid all exit 1 here. *)
let load_plan ~n path =
  match Repro_fault.Schedule.load path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok plan -> (
    match Repro_fault.Schedule.validate ~n plan with
    | Error e -> Error (Printf.sprintf "%s: invalid fault plan: %s" path e)
    | Ok plan -> Ok plan)

let nemesis_cmd =
  let n_arg =
    Arg.(value & opt int 3 & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Group size.")
  in
  let kind_arg =
    Arg.(
      value
      & opt kind_conv Replica.Modular
      & info [ "stack" ] ~docv:"STACK" ~doc:"Which implementation to subject to the plan.")
  in
  let load_arg =
    Arg.(
      value & opt float 600.0
      & info [ "load" ] ~docv:"MSGS/S" ~doc:"Offered load, messages per second globally.")
  in
  let settle_arg =
    Arg.(
      value & opt float 5.0
      & info [ "settle" ] ~docv:"S"
          ~doc:"Virtual seconds to keep running after the last scheduled fault.")
  in
  let run plan_file kind n load settle seed snapshot_every snapshot_out
      trace_max_events =
    match (load_plan ~n plan_file, snapshot_request ~snapshot_every ~snapshot_out) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok schedule, Ok snapshot ->
      let v =
        match snapshot with
        | Some (every_ns, path) ->
          (* Record with a live sink even though no trace file was asked
             for: the frame log's world carries the span trace, which is
             what gives `repro bisect` its critical-path window. The
             default span cap keeps the world blob — remarshaled whole
             into every frame — small; early spans win ties, which is
             the right bias for bisecting the *first* violation. *)
          let max_events = Option.value ~default:20_000 trace_max_events in
          let obs = Repro_obs.Obs.create ~max_events () in
          let v =
            Repro_replay.Replay.record_nemesis ~obs ~kind ~n ~seed ~schedule
              ~offered_load:load ~settle_s:settle ~every_ns ~path ()
          in
          Fmt.epr "recorded frame log to %s@." path;
          v
        | None ->
          Repro_fault.Campaign.run_one ~kind ~n ~seed ~schedule ~offered_load:load
            ~settle_s:settle ()
      in
      Fmt.pr "%a@." Repro_fault.Campaign.pp_verdict v;
      (match v.Repro_fault.Campaign.outcome with
      | Repro_fault.Campaign.Pass -> `Ok ()
      | Repro_fault.Campaign.Fail _ -> `Error (false, "invariant violated"))
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Run one atomic-broadcast group under a declarative fault plan, with \
          continuous invariant monitoring (total order, agreement, integrity, \
          validity, liveness).")
    Term.(
      ret
        (const run $ fault_plan_arg $ kind_arg $ n_arg $ load_arg $ settle_arg
       $ seed_arg $ snapshot_every_arg $ snapshot_out_arg $ trace_max_arg))

(* ---- replay / bisect / trace-export: the time-travel tooling ---- *)

module Replay = Repro_replay.Replay

let log_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"LOG" ~doc:"Frame log written by --snapshot-every/--snapshot-out.")

let replay_cmd =
  let frame_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "frame" ] ~docv:"K"
          ~doc:"Resume from frame $(docv) (default: 0, the start of the run).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Replay the suffix from $(i,every) frame and diff the observable bytes \
             (metrics, trace, report) against the recording; fail on any divergence.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the log's frames and descriptor; run nothing.")
  in
  let run log_path frame verify list =
    match Replay.load log_path with
    | exception Replay.Replay_error e -> `Error (false, e)
    | log -> (
      if list then begin
        Fmt.pr "%s@." (Replay.descriptor log);
        Fmt.pr "cadence: every %.3f virtual ms@."
          (float_of_int (Replay.every_ns log) /. 1e6);
        List.iter
          (fun (k, at_ns) ->
            Fmt.pr "frame %3d at %10.3f ms@." k (float_of_int at_ns /. 1e6))
          (Replay.frame_times log);
        Fmt.pr "final    at %10.3f ms@."
          (float_of_int (Replay.final_at_ns log) /. 1e6);
        `Ok ()
      end
      else if verify then begin
        let progress ~frame ~frames =
          Fmt.epr "verifying frame %d/%d...@." frame (frames - 1)
        in
        match Replay.verify ~progress log with
        | exception Replay.Replay_error e -> `Error (false, e)
        | [] ->
          Fmt.pr "%d frames verified: every resumed suffix is byte-identical.@."
            (Replay.frame_count log);
          `Ok ()
        | divergences ->
          List.iter
            (fun (d : Replay.divergence) ->
              Fmt.pr "frame %d: %s stream diverged: %s@." d.Replay.d_frame
                d.Replay.d_stream d.Replay.d_detail)
            divergences;
          `Error (false, "replay diverged from the recording")
      end
      else
        let from_frame = Option.value ~default:0 frame in
        match Replay.replay log ~from_frame with
        | exception Replay.Replay_error e -> `Error (false, e)
        | world ->
          print_string (Replay.report_text world);
          print_newline ();
          `Ok ())
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Resume a recorded run from any snapshot frame and reproduce its suffix \
          byte-identically; --verify self-checks every frame.")
    Term.(ret (const run $ log_arg $ frame_arg $ verify_arg $ list_arg))

let bisect_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the structured report (bisect summary, per-section state diffs, \
             window spans) as JSONL to $(docv) instead of stdout.")
  in
  let run log_path out =
    match
      let log = Replay.load log_path in
      Replay.bisect log
    with
    | exception Replay.Replay_error e -> `Error (false, e)
    | None ->
      Fmt.pr "the recorded run never violated an invariant; nothing to bisect.@.";
      `Ok ()
    | Some r ->
      Fmt.pr "violation: %s at process p%d, %.3f ms — %s@." r.Replay.b_invariant
        r.Replay.b_process r.Replay.b_at_ms r.Replay.b_detail;
      (match r.Replay.b_to_frame with
      | Some k ->
        Fmt.pr "window: frame %d -> frame %d (%.3f ms .. %.3f ms)@."
          r.Replay.b_from_frame k r.Replay.b_from_ms r.Replay.b_to_ms
      | None ->
        Fmt.pr "window: frame %d -> end of run (%.3f ms .. %.3f ms)@."
          r.Replay.b_from_frame r.Replay.b_from_ms r.Replay.b_to_ms);
      Fmt.pr "%d sections changed across the window, %d causal spans inside it@."
        (List.length r.Replay.b_diff)
        (List.length r.Replay.b_window_spans);
      let lines = Replay.bisect_report_lines r in
      (match out with
      | None -> List.iter print_endline lines
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines);
        Fmt.pr "wrote %d report lines to %s@." (List.length lines) path);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Binary-search a recorded invariant violation to its narrowest inter-frame \
          window and emit a per-module state diff of that window.")
    Term.(ret (const run $ log_arg $ out_arg))

let trace_export_cmd =
  let trace_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Input trace JSONL, as written by --trace-out.")
  in
  let chrome_out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Output Trace Event Format JSON, loadable in Perfetto \
             (ui.perfetto.dev) or chrome://tracing.")
  in
  let run trace_path chrome_out =
    let ic = open_in_bin trace_path in
    let len = in_channel_length ic in
    let body = really_input_string ic len in
    close_in ic;
    match Repro_obs.Jsonl.parse_lines body with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" trace_path e)
    | Ok lines ->
      let json = Repro_analysis.Chrome_trace.export_string lines in
      let oc = open_out chrome_out in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc json);
      Fmt.pr "wrote chrome trace (%d input lines) to %s@." (List.length lines)
        chrome_out;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:
         "Convert an Obs span JSONL file into Chrome Trace Event Format: one \
          process per simulated node, one thread per protocol layer, causal spans \
          as complete events.")
    Term.(ret (const run $ trace_arg $ chrome_out_arg))

(* ---- campaign: randomized multi-seed fault campaign ---- *)

let campaign_cmd =
  let n_arg =
    Arg.(value & opt int 3 & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Group size.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "campaign-seeds" ] ~docv:"N"
          ~doc:
            "Number of random fault schedules; every stack faces the same schedule per \
             seed.")
  in
  let base_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED" ~doc:"First schedule seed (seeds are consecutive).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Append one JSONL verdict object per run to $(docv).")
  in
  let horizon_arg =
    Arg.(
      value & opt float 2.0
      & info [ "horizon" ] ~docv:"S"
          ~doc:"Virtual seconds each random schedule spans (faults end by 0.9 horizon).")
  in
  let adversary_arg =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Also draw message-adversary windows (per-broadcast drop budgets, \
             corruption, duplication, reordering) into each random schedule.")
  in
  let equivocation_arg =
    Arg.(
      value & flag
      & info [ "equivocation" ]
          ~doc:
            "With $(b,--adversary): let adversary windows also draw channel \
             equivocation, which no signature-free stack can absorb — use to \
             exercise detection, expecting violations.")
  in
  let run n seeds base_seed out horizon adversary equivocation jobs =
    let oc = Option.map open_out out in
    let on_verdict v =
      Fmt.pr "%a@." Repro_fault.Campaign.pp_verdict v;
      Option.iter
        (fun oc ->
          output_string oc (Repro_fault.Campaign.verdict_line v);
          output_char oc '\n')
        oc
    in
    let verdicts =
      Repro_fault.Campaign.run ~base_seed ~horizon_s:horizon ~on_verdict
        ~jobs:(resolve_jobs jobs) ~adversary ~equivocation ~n ~seeds ()
    in
    Option.iter close_out oc;
    match Repro_fault.Campaign.failures verdicts with
    | [] ->
      Fmt.pr "%d runs, all invariants held.@." (List.length verdicts);
      `Ok ()
    | failures ->
      (* Shrink the first failure to a minimal reproducer before reporting. *)
      let v = List.hd failures in
      let minimal = Repro_fault.Campaign.minimize v in
      Fmt.epr "%d of %d runs violated an invariant.@." (List.length failures)
        (List.length verdicts);
      Fmt.epr "Minimal reproducing schedule (stack %s, n=%d, seed %d):@.%s@."
        (kind_name v.Repro_fault.Campaign.kind)
        v.Repro_fault.Campaign.n v.Repro_fault.Campaign.seed
        (Repro_fault.Schedule.to_string minimal);
      `Error (false, "invariant violations found")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a randomized fault-injection campaign: N random schedules (crashes, \
          partitions, loss and delay windows; message-adversary windows with \
          $(b,--adversary)) against all three stacks, with continuous invariant \
          monitoring; failing schedules are shrunk to a minimal reproducer.")
    Term.(
      ret
        (const run $ n_arg $ seeds_arg $ base_seed_arg $ out_arg $ horizon_arg
       $ adversary_arg $ equivocation_arg $ jobs_arg))

(* ---- study: modularity cost under faults ---- *)

let study_cmd =
  let n_arg =
    Arg.(value & opt int 3 & info [ "n"; "group-size" ] ~docv:"N" ~doc:"Group size.")
  in
  let adversary_arg =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Run the message-adversary sweep instead of the scripted scenarios: \
             every stack against the off/weak/medium/strong strength levels \
             (drop budgets, corruption, duplication, reordering; equivocation at \
             strong), each cell also classified live / safe-stall / \
             safety-violation after a settle phase.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "With $(b,--adversary) or $(b,--scale): append one JSONL row object \
             per cell to $(docv).")
  in
  let run_scenarios n csv jobs =
    if csv then print_endline "stack,scenario,n,latency_ms,throughput,lat_ratio,tput_ratio";
    let all =
      Repro_fault.Study.run ~n ~jobs
        ~on_row:(fun row ->
          if not csv then Fmt.pr "%a@." Repro_fault.Study.pp_row row)
        ()
    in
    List.iter
      (fun (row : Repro_fault.Study.row) ->
        let lat_r, tput_r =
          match Repro_fault.Study.degradation all row with
          | Some (l, t) -> (l, t)
          | None -> (1.0, 1.0)
        in
        if csv then
          Printf.printf "%s,%s,%d,%.4f,%.2f,%.3f,%.3f\n"
            (kind_name row.Repro_fault.Study.kind)
            row.Repro_fault.Study.scenario n
            row.Repro_fault.Study.result.Experiment.early_latency_ms.Stats.mean
            row.Repro_fault.Study.result.Experiment.throughput lat_r tput_r
        else if row.Repro_fault.Study.scenario <> "none" then
          Fmt.pr "%-10s %-14s degradation: latency x%.2f, throughput x%.2f@."
            (kind_name row.Repro_fault.Study.kind)
            row.Repro_fault.Study.scenario lat_r tput_r)
      all
  in
  let run_adversary n csv out seed jobs =
    let oc = Option.map open_out out in
    if csv then
      print_endline
        "stack,level,n,latency_ms,throughput,lat_ratio,tput_ratio,degradation,\
         adv_dropped,adv_corrupted,adv_duplicated,adv_reordered,adv_equivocated,\
         tampered_detected,tampered_silent";
    let all =
      Repro_fault.Study.run_adversary ~n ~seed ~jobs
        ~on_row:(fun row ->
          if not csv then Fmt.pr "%a@." Repro_fault.Study.pp_adversary_row row;
          Option.iter
            (fun oc ->
              output_string oc
                (Repro_obs.Jsonl.to_string
                   (Repro_fault.Study.adversary_row_json row));
              output_char oc '\n')
            oc)
        ()
    in
    Option.iter close_out oc;
    List.iter
      (fun (row : Repro_fault.Study.adversary_row) ->
        let lat_r, tput_r =
          match Repro_fault.Study.adversary_degradation all row with
          | Some (l, t) -> (l, t)
          | None -> (1.0, 1.0)
        in
        let level = row.Repro_fault.Study.level.Repro_fault.Adversary.name in
        if csv then
          Printf.printf "%s,%s,%d,%.4f,%.2f,%.3f,%.3f,%s,%d,%d,%d,%d,%d,%d,%d\n"
            (kind_name row.Repro_fault.Study.kind)
            level n
            row.Repro_fault.Study.result.Experiment.early_latency_ms.Stats.mean
            row.Repro_fault.Study.result.Experiment.throughput lat_r tput_r
            (Repro_fault.Monitor.degradation_name
               row.Repro_fault.Study.classification)
            row.Repro_fault.Study.adv.Repro_net.Network.adv_dropped
            row.Repro_fault.Study.adv.Repro_net.Network.adv_corrupted
            row.Repro_fault.Study.adv.Repro_net.Network.adv_duplicated
            row.Repro_fault.Study.adv.Repro_net.Network.adv_reordered
            row.Repro_fault.Study.adv.Repro_net.Network.adv_equivocated
            row.Repro_fault.Study.tampered_detected
            row.Repro_fault.Study.tampered_silent
        else if level <> "off" then
          Fmt.pr "%-10s %-6s degradation: latency x%.2f, throughput x%.2f (%s)@."
            (kind_name row.Repro_fault.Study.kind)
            level lat_r tput_r
            (Repro_fault.Monitor.degradation_name
               row.Repro_fault.Study.classification))
      all
  in
  let scale_arg =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Run the modularity-cost-vs-scale study instead (EXPERIMENTS.md \
             S-scale): a shard-count × client-population grid for all three \
             stacks, each cell a sharded multi-group run driven by the \
             client-population model (Zipf-tailed per-client rates, diurnal \
             swing, one mid-window flash crowd), holding the per-shard offered \
             load constant. $(b,--out) appends one JSONL row per cell; output \
             is byte-identical for any $(b,--jobs).")
  in
  let shards_arg =
    Arg.(
      value
      & opt (list int) Repro_shard.Scale.default_shards
      & info [ "shards" ] ~docv:"M,.."
          ~doc:"With $(b,--scale): shard-count axis of the grid.")
  in
  let clients_arg =
    Arg.(
      value
      & opt (list int) Repro_shard.Scale.default_clients
      & info [ "clients" ] ~docv:"N,.."
          ~doc:"With $(b,--scale): client-population axis of the grid.")
  in
  let load_arg =
    Arg.(
      value & opt float 600.0
      & info [ "per-shard-load" ] ~docv:"R"
          ~doc:
            "With $(b,--scale): offered load per shard, req/s (total load = R × \
             shards, split over the population).")
  in
  let cross_arg =
    Arg.(
      value & opt float 0.05
      & info [ "cross" ] ~docv:"F"
          ~doc:
            "With $(b,--scale): fraction of requests that also touch a second \
             shard (scored by the slower leg).")
  in
  let run_scale n csv out seed jobs shards clients per_shard_load cross =
    let module Scale = Repro_shard.Scale in
    let module Shard = Repro_shard.Shard in
    let oc = Option.map open_out out in
    if csv then
      print_endline
        "stack,shards,clients,rate_per_client,requests,cross_requests,latency_ms,\
         latency_p95_ms,cross_latency_ms,throughput,events_executed";
    let rows =
      Scale.run ~shard_counts:shards ~clients ~per_shard_load
        ~cross_fraction:cross ~n ~seed ~jobs
        ~on_row:(fun row ->
          let res = row.Scale.row_result in
          if csv then
            Printf.printf "%s,%d,%d,%.8f,%d,%d,%.4f,%.4f,%.4f,%.2f,%d\n%!"
              (kind_name row.Scale.row_kind)
              row.Scale.row_shards row.Scale.row_clients row.Scale.row_rate
              res.Shard.plan_total res.Shard.plan_cross
              res.Shard.latency_ms.Stats.mean res.Shard.latency_ms.Stats.p95
              res.Shard.cross_latency_ms.Stats.mean res.Shard.throughput
              res.Shard.events_executed
          else Fmt.pr "%a@." Shard.pp_result row.Scale.row_result;
          Option.iter
            (fun oc ->
              output_string oc (Repro_obs.Jsonl.to_string (Scale.row_json row));
              output_char oc '\n')
            oc)
        ()
    in
    Option.iter close_out oc;
    (* The headline: how the modular/monolithic gap moves with scale. *)
    if not csv then begin
      let find kind s c =
        List.find_opt
          (fun r ->
            r.Scale.row_kind = kind && r.Scale.row_shards = s
            && r.Scale.row_clients = c)
          rows
      in
      List.iter
        (fun s ->
          List.iter
            (fun c ->
              match (find Replica.Modular s c, find Replica.Monolithic s c) with
              | Some m, Some mono
                when mono.Scale.row_result.Shard.latency_ms.Stats.mean > 0.0 ->
                Fmt.pr
                  "shards=%-3d clients=%-8d modularity cost: latency x%.2f, \
                   throughput x%.2f@."
                  s c
                  (m.Scale.row_result.Shard.latency_ms.Stats.mean
                  /. mono.Scale.row_result.Shard.latency_ms.Stats.mean)
                  (m.Scale.row_result.Shard.throughput
                  /. mono.Scale.row_result.Shard.throughput)
              | _ -> ())
            clients)
        shards
    end
  in
  let run n csv adversary scale out seed jobs shards clients per_shard_load
      cross =
    let jobs = resolve_jobs jobs in
    if scale then begin
      run_scale n csv out seed jobs shards clients per_shard_load cross;
      `Ok ()
    end
    else begin
      if adversary then run_adversary n csv out seed jobs
      else run_scenarios n csv jobs;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "study"
       ~doc:
         "Measure the modular/monolithic gap while scripted faults hit the measurement \
          window (coordinator crash, 2% loss, partition+heal) — the \
          modularity-cost-under-faults study (EXPERIMENTS.md S-faults) — or, with \
          $(b,--adversary), the robustness-vs-performance sweep against the message \
          adversary's strength levels — or, with $(b,--scale), the \
          modularity-cost-vs-scale study over sharded multi-group runs with \
          million-client workloads (EXPERIMENTS.md S-scale).")
    Term.(
      ret
        (const run $ n_arg $ csv_arg $ adversary_arg $ scale_arg $ out_arg
       $ seed_arg $ jobs_arg $ shards_arg $ clients_arg $ load_arg $ cross_arg))

(* ---- compare: regression gate over two benchmark reports ---- *)

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline report written by bench --json-out.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Candidate report to compare against the baseline.")
  in
  let run old_path new_path =
    match
      ( Repro_analysis.Bench_report.read_file old_path,
        Repro_analysis.Bench_report.read_file new_path )
    with
    | Error e, _ -> `Error (false, Printf.sprintf "%s: %s" old_path e)
    | _, Error e -> `Error (false, Printf.sprintf "%s: %s" new_path e)
    | Ok old_report, Ok new_report -> (
      (* Informational only: events/sec measures the simulator's own
         wall-clock speed, not a simulated quantity, so it never gates.
         Baselines written before the key existed simply skip the line. *)
      (let eps r = List.assoc_opt "events_per_sec" r.Repro_analysis.Bench_report.meta in
       match (eps old_report, eps new_report) with
       | Some o, Some n -> (
         match (float_of_string_opt o, float_of_string_opt n) with
         | Some o, Some n when o > 0.0 && n > 0.0 ->
           Fmt.pr "simulator events/sec: %.0f -> %.0f (%.2fx, informational)@." o n
             (n /. o)
         | _ -> ())
       | _ -> ());
      (* Same: snapshot-recording overhead (bench --snapshot-every) is
         provenance, never a gate. Only mentioned when a side recorded. *)
      (let snap r key =
         Option.bind
           (List.assoc_opt key r.Repro_analysis.Bench_report.meta)
           int_of_string_opt
         |> Option.value ~default:0
       in
       let line label r =
         let taken = snap r "snapshots_taken" in
         if taken > 0 then
           Fmt.pr
             "%s recorded %d snapshot frames (%.1f MB, %d restores, informational)@."
             label taken
             (float_of_int (snap r "snapshot_bytes") /. 1e6)
             (snap r "restore_count")
       in
       line "baseline" old_report;
       line "candidate" new_report);
      let verdicts =
        Repro_analysis.Bench_report.compare_reports ~old_report ~new_report
      in
      if verdicts = [] then
        `Error (false, "the reports share no benchmark entries")
      else begin
        List.iter
          (fun v -> Fmt.pr "%a@." Repro_analysis.Bench_report.pp_verdict v)
          verdicts;
        match Repro_analysis.Bench_report.regressions verdicts with
        | [] ->
          Fmt.pr "%d entries compared, no regressions.@." (List.length verdicts);
          `Ok ()
        | regs ->
          `Error
            ( false,
              Printf.sprintf "%d of %d entries regressed" (List.length regs)
                (List.length verdicts) )
      end)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two benchmark reports (bench --json-out) and exit nonzero when a \
          metric regressed beyond both its noise band (larger IQR of the two runs) \
          and a 3% relative threshold.")
    Term.(ret (const run $ old_arg $ new_arg))

(* ---- critical-path: latency attribution from a span trace ---- *)

let critical_path_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:"Span trace written by --trace-out (run or bench).")
  in
  let pid_arg =
    Arg.(
      value
      & opt (some int) (Some 0)
      & info [ "pid" ] ~docv:"P"
          ~doc:
            "Attribute deliveries observed at process $(docv) (0-based; default 0). \
             Pass a negative value ($(b,--pid=-1)) to pool all processes.")
  in
  let run trace_path pid =
    let module Cp = Repro_analysis.Critical_path in
    let module Jsonl = Repro_obs.Jsonl in
    let pid = match pid with Some p when p >= 0 -> Some p | _ -> None in
    (* One line at a time: the trace is never held whole, only the
       analysis's own per-sid index. *)
    let spans = ref 0 in
    let exception Bad_line of string in
    let stream ic f =
      let rec loop line =
        match In_channel.input_line ic with
        | None -> ()
        | Some l when String.trim l = "" -> loop (line + 1)
        | Some l -> (
          match Jsonl.parse l with
          | Error e -> raise (Bad_line (Printf.sprintf "%s: line %d: %s" trace_path line e))
          | Ok j ->
            Option.iter
              (fun s ->
                incr spans;
                f s)
              (Jsonl.span_of_json j);
            loop (line + 1))
      in
      loop 1
    in
    match In_channel.with_open_text trace_path (fun ic -> Cp.of_iter ?pid (stream ic)) with
    | exception (Sys_error e | Bad_line e) -> `Error (false, e)
    | _ when !spans = 0 ->
      `Error
        ( false,
          Printf.sprintf "%s contains no span lines (was the run traced with --trace-out?)"
            trace_path )
    | b when b.Cp.deliveries = 0 ->
      `Error
        ( false,
          Printf.sprintf "no complete delivery chains in the trace (%d deliveries skipped)"
            b.Cp.skipped )
    | b ->
      Fmt.pr "%a" Cp.pp_breakdown b;
      Fmt.pr "@.by layer:@.";
      List.iter (fun (layer, ms) -> Fmt.pr "  %-12s %10.3f ms@." layer ms) (Cp.by_layer b);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:
         "Reconstruct per-delivery causal chains from a span trace, each cut at its \
          message's publish, and attribute end-to-end latency to protocol \
          layer/phase, wire and wait segments.")
    Term.(ret (const run $ trace_arg $ pid_arg))

(* ---- lint: determinism & modularity-boundary static analysis ---- *)

let lint_cmd =
  let build_root_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "build-root" ] ~docv:"DIR"
          ~doc:
            "Directory holding the compiled .cmt files (dune's context root, normally \
             $(i,_build/default)). Default: search upward from the current directory.")
  in
  let src_arg =
    Arg.(
      value & opt_all string []
      & info [ "src" ] ~docv:"DIR"
          ~doc:"Subdirectory of the build root to lint (repeatable; default lib).")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Layering spec for the boundary checker (default lint/boundaries.spec \
             when present; pass an empty value via --no-boundaries to skip).")
  in
  let no_boundaries_arg =
    Arg.(value & flag & info [ "no-boundaries" ] ~doc:"Skip the boundary checker.")
  in
  let waivers_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "waivers" ] ~docv:"FILE"
          ~doc:"Waiver file (default lint/lint.waivers when present).")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Also export the cross-module reference graph as a Graphviz digraph to \
             $(docv) ($(b,-) for stdout), one cluster per library.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the findings to $(docv) ($(b,-) for stdout) as JSON Lines: \
             one object per violation with fields $(i,rule), $(i,file), $(i,line), \
             $(i,col), $(i,message), $(i,waived) (active first, then waived).")
  in
  let source_root_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "source-root" ] ~docv:"DIR"
          ~doc:
            "Project root holding the sources the .cmt files were compiled from, \
             for the stale-artifact guard. Default: the directory two levels above \
             the build root when it contains dune-project; pass an explicit root \
             when linting out of tree.")
  in
  let allow_stale_arg =
    Arg.(
      value & flag
      & info [ "allow-stale" ]
          ~doc:
            "Lint anyway when a .cmt is older than its source (the guard normally \
             errors out: the verdict would describe code that no longer exists). \
             Stale files are still listed as warnings.")
  in
  (* `dune runtest` passes --build-root explicitly; a developer run from a
     checkout finds _build/default (or a parent's) on its own. *)
  let detect_build_root () =
    let rec up dir n =
      if n = 0 then None
      else
        let candidate = Filename.concat dir (Filename.concat "_build" "default") in
        if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else up parent (n - 1)
    in
    up (Sys.getcwd ()) 6
  in
  let default_file path = if Sys.file_exists path then Some path else None in
  (* The .cmt paths are recorded relative to the dune context root's
     parent's parent (the checkout): _build/default -> the checkout. *)
  let detect_source_root build_root =
    let candidate = Filename.dirname (Filename.dirname build_root) in
    if Sys.file_exists (Filename.concat candidate "dune-project") then
      Some candidate
    else None
  in
  let run build_root srcs spec no_boundaries waivers dot json source_root
      allow_stale =
    match
      match build_root with Some r -> Some r | None -> detect_build_root ()
    with
    | None ->
      `Error
        (false, "cannot find _build/default; run `dune build` or pass --build-root")
    | Some build_root -> (
      let spec_file =
        if no_boundaries then None
        else
          match spec with
          | Some f -> Some f
          | None -> default_file "lint/boundaries.spec"
      in
      let waivers_file =
        match waivers with Some f -> Some f | None -> default_file "lint/lint.waivers"
      in
      let src_dirs = if srcs = [] then None else Some srcs in
      let source_root =
        match source_root with
        | Some r -> Some r
        | None -> detect_source_root build_root
      in
      match
        Repro_lint.Lint.run ~build_root ?src_dirs ?spec_file ?waivers_file
          ?source_root ~allow_stale ()
      with
      | Error e -> `Error (false, e)
      | Ok report ->
        Option.iter
          (fun path ->
            let dot = Repro_lint.Boundaries.to_dot report.Repro_lint.Lint.edges in
            if path = "-" then print_string dot
            else Out_channel.with_open_text path (fun oc -> output_string oc dot))
          dot;
        Option.iter
          (fun path ->
            let lines = Repro_lint.Lint.json_lines report in
            let body = String.concat "\n" lines ^ if lines = [] then "" else "\n" in
            if path = "-" then print_string body
            else Out_channel.with_open_text path (fun oc -> output_string oc body))
          json;
        List.iter
          (fun (src, _cmt) ->
            Fmt.epr "warning: stale artifact: %s is newer than its .cmt@." src)
          report.Repro_lint.Lint.stale;
        List.iter
          (fun w -> Fmt.epr "warning: unused waiver: %a@." Repro_lint.Waivers.pp w)
          report.Repro_lint.Lint.unused_waivers;
        List.iter
          (fun v -> Fmt.pr "%a@." Repro_lint.Violation.pp v)
          report.Repro_lint.Lint.violations;
        Fmt.pr "%a@." Repro_lint.Lint.pp_summary report;
        if report.Repro_lint.Lint.violations = [] then `Ok ()
        else `Error (false, "lint violations found (fix, or waive with a justification)"))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the reproduction invariants against the compiled .cmt \
          ASTs: determinism (no stdlib Random / wall clock, no hash-order escapes, no \
          representation-dependent comparison), snapshot completeness, domain-capture \
          safety at Pool.map/Parmap sites, RNG stream discipline, and the declared \
          modularity boundaries (protocol modules compose only through \
          Framework.Event_bus / Stack).")
    Term.(
      ret
        (const run $ build_root_arg $ src_arg $ spec_arg $ no_boundaries_arg
       $ waivers_arg $ dot_arg $ json_arg $ source_root_arg $ allow_stale_arg))

let main_cmd =
  let doc =
    "Reproduction of 'On the Cost of Modularity in Atomic Broadcast' (DSN 2007): \
     modular vs monolithic atomic broadcast over a simulated cluster."
  in
  (* One line per subcommand so `repro --help` is a complete quick
     reference without opening each command's own page. *)
  let man =
    [
      `S Manpage.s_description;
      `P "Subcommands, one line each:";
      `I ("$(b,run)", "one benchmark configuration (stack, n, load, size).");
      `I ("$(b,figure)", "regenerate the data of paper figure 8, 9, 10 or 11.");
      `I ("$(b,plot)", "figure data as gnuplot-ready .dat files plus a .gp script.");
      `I ("$(b,tables)", "the \xc2\xa75.2 analytical evaluation, analytical vs measured.");
      `I ("$(b,ablation)", "contribution of each monolithic optimization (\xc2\xa74.1-\xc2\xa74.3).");
      `I ("$(b,dispatch)", "sweep the framework's per-boundary dispatch cost.");
      `I ("$(b,window)", "sweep the flow-control window that sets the batch size M.");
      `I ("$(b,nemesis)", "one run under a declarative fault plan, invariants monitored.");
      `I ("$(b,replay)", "resume a recorded run from any snapshot frame; --verify self-checks.");
      `I ("$(b,bisect)", "localize a recorded invariant violation to an inter-frame window.");
      `I ("$(b,trace-export)", "convert a trace JSONL into Chrome/Perfetto trace format.");
      `I ("$(b,campaign)", "randomized fault campaign with shrinking reproducers.");
      `I
        ( "$(b,study)",
          "the modularity-cost-under-faults study (S-faults table); --scale for \
           the sharded modularity-cost-vs-scale study." );
      `I ("$(b,compare)", "regression gate over two bench --json-out reports.");
      `I ("$(b,critical-path)", "per-delivery latency attribution from a span trace.");
      `I ("$(b,lint)", "determinism & modularity-boundary static analysis (.cmt based).");
    ]
  in
  Cmd.group
    (Cmd.info "repro" ~version:"1.0.0" ~doc ~man)
    [
      run_cmd;
      figure_cmd;
      plot_cmd;
      tables_cmd;
      ablation_cmd;
      dispatch_cmd;
      window_cmd;
      nemesis_cmd;
      replay_cmd;
      bisect_cmd;
      trace_export_cmd;
      campaign_cmd;
      study_cmd;
      compare_cmd;
      critical_path_cmd;
      lint_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
