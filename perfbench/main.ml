(* The repository benchmark: the simulator's own cost and its simulated
   results on three workloads (see NOTES.md for why these three, and for
   which layer each metric belongs to).

     main.exe --workload paper|shard-hot|traced-crash --seed N --seconds S --trace 0|1

   Every run first executes one untimed reference iteration. With
   [--trace 0] it then repeats the workload, untraced, for S seconds and
   reports the end-to-end metrics: medians for the times, the reference's
   simulated results. With [--trace 1] it alternates untraced and traced
   iterations (benchmark spans around each layer call) and reports the
   per-layer metrics. Every repeat must reproduce the reference's
   simulated results exactly; a repeat that does not fails the run's
   requests. The last line of standard output is the JSON result. *)

module Quantile = Perfbench.Quantile
module Wspan = Perfbench.Wspan
module Result_line = Perfbench.Result_line
module Probe = Perfbench.Probe
module W = Workloads

let now = W.now
let median = W.median

let min_repeats = 3

(* Stop repeating once the measuring time is spent, or, on a machine slow
   enough to risk the run's time limit, once the minimum is reached. *)
let keep_going ~started ~seconds count =
  let elapsed = now () -. started in
  count < min_repeats || (elapsed < seconds && elapsed < 120.0)

(* Traced and reference iterations read no probe. *)
let no_probe () = Probe.ref_s

let iteration ?(probe = no_probe) (w : W.workload) ~seed ~traced variant =
  (* Every iteration starts from a compacted heap, so repeats do not
     inherit each other's garbage. *)
  Gc.compact ();
  let tr = Wspan.create ~enabled:traced in
  let it = Wspan.record tr "bench.iteration" (fun () -> w.W.run tr ~probe ~seed variant) in
  (it, tr)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let metric name unit_ value = { Result_line.name; value; unit_ }

let print_checks (it : W.iter) =
  List.iter
    (fun (name, ok) -> Printf.printf "check %-40s %s\n" name (if ok then "ok" else "FAILED"))
    it.W.checks

let print_latency (it : W.iter) =
  List.iter
    (fun (label, (q : Quantile.t)) ->
      Printf.printf "%s = %.6f ms over %d samples, %d beyond%s\n" label q.Quantile.value
        q.Quantile.samples q.Quantile.beyond
        (if q.Quantile.beyond < 10 then " (fewer than 10: tail not supported)" else ""))
    [ ("vlat_p50_ms", it.W.p50); ("vlat_p99_ms", it.W.p99) ]

(* [failed] counts the reference's failed requests, or all of them when a
   repeat did not reproduce the reference. *)
let verdict (reference : W.iter) ~reproduced =
  let failed = if reproduced then reference.W.failed else reference.W.attempted in
  let correct = failed = 0 && List.for_all snd reference.W.checks in
  Printf.printf "attempted %d, failed %d (failed_share %.6g), repeats reproduce the reference: %b\n"
    reference.W.attempted failed
    (float_of_int failed /. float_of_int (max 1 reference.W.attempted))
    reproduced;
  (correct, failed)

(* Timed repeats read the probe between the workload's stretches; the
   reported times are the probed ones (see [Workloads.scaled]). *)
let timed_run (w : W.workload) ~seed ~seconds =
  let reference, _ = iteration w ~seed ~traced:false W.Main in
  (* The reference is the process's first iteration, so the top of the
     heap here is the workload's own peak, before any probe ran. *)
  let peak_heap_mb = peak_heap_mb () in
  let ref_digest = W.digest reference in
  let started = now () in
  let rec loop acc =
    if keep_going ~started ~seconds (List.length acc) then
      loop (fst (iteration ~probe:Probe.run w ~seed ~traced:false W.Main) :: acc)
    else acc
  in
  let repeats = List.rev (loop []) in
  List.iteri
    (fun i (it : W.iter) ->
      Printf.printf "repeat %d: wall %.6f s, setup %.6f s, probed wall %.6f s, setup %.6f s\n"
        (i + 1) it.W.wall_s it.W.setup_s it.W.wall_probed it.W.setup_probed)
    repeats;
  let reproduced = List.for_all (fun it -> W.digest it = ref_digest) repeats in
  print_checks reference;
  print_latency reference;
  let correct, failed = verdict reference ~reproduced in
  let med f = median (List.map f repeats) in
  Printf.printf "repeats %d, raw medians: wall %.4f s, setup %.6f s\n" (List.length repeats)
    (med (fun it -> it.W.wall_s))
    (med (fun it -> it.W.setup_s));
  {
    Result_line.correct;
    attempted = reference.W.attempted;
    failed;
    metrics =
      [
        metric "wall_s" "s" (med (fun it -> it.W.wall_probed));
        metric "setup_s" "s" (med (fun it -> it.W.setup_probed));
        metric "peak_heap_mb" "MB" peak_heap_mb;
        metric "alloc_words_per_delivery" "words"
          (med (fun it -> it.W.minor_words /. float_of_int (max 1 it.W.adeliveries)));
        metric "vlat_p50_ms" "ms" reference.W.p50.Quantile.value;
        metric "vlat_p99_ms" "ms" reference.W.p99.Quantile.value;
        metric "vtput_per_s" "1/s" reference.W.tput;
        metric "served_share" "share"
          (1.0 -. (float_of_int failed /. float_of_int (max 1 reference.W.attempted)));
      ];
  }

(* Per-layer figures of one traced iteration: times from the benchmark's
   spans, counts from the iteration's simulated results. *)
let layer_figures (it : W.iter) tr =
  let span = Wspan.total tr in
  let sim name = Option.value (List.assoc_opt name it.W.sim_layer) ~default:0.0 in
  let events = float_of_int it.W.events in
  let spans = float_of_int it.W.spans in
  let loop_s = span "sim.loop" +. span "shard.run" in
  let cp_s = span "analysis.critical_path" in
  let per a b = if b = 0.0 then 0.0 else a /. b in
  let all = Wspan.spans tr in
  (* The iteration's own time outside every layer call: the benchmark's
     checks and bookkeeping. *)
  let bench_self =
    List.fold_left
      (fun a s -> if s.Wspan.name = "bench.iteration" then a +. Wspan.self_time all s else a)
      0.0 all
  in
  [
    ("sim.events", events);
    ("sim.loop_s", loop_s);
    ("sim.ns_per_event", per (loop_s *. 1e9) events);
    ("sim.minor_words_per_event", per it.W.loop.W.minor events);
    ("sim.promoted_share", per it.W.loop.W.promoted it.W.loop.W.minor);
    ("sim.major_gcs", float_of_int it.W.loop.W.majors);
    ("workload.plan_s", span "workload.plan");
    ("workload.plan_words_per_request", it.W.plan_words);
    ("workload.summarise_s", span "workload.summarise");
    ("workload.backlog_share", sim "workload.backlog_share");
    ("shard.run_s", span "shard.run");
    ("shard.cross_share", sim "shard.cross_share");
  ]
  @ List.map
      (fun l -> (l, sim l))
      [
        "net.msgs_per_delivery.abcast";
        "net.msgs_per_delivery.consensus";
        "net.msgs_per_delivery.rbcast";
        "net.wire_bytes_per_delivery";
        "net.max_nic_util";
      ]
  @ [ ("core.group_create_s", span "core.group_create") ]
  @ List.map
      (fun l -> (l, sim l))
      [
        "core.mean_batch";
        "core.instances";
        "core.cpu_util";
        "core.crossings_per_msg";
        "core.estimates_per_decision";
        "core.rbcast_relays_per_broadcast";
      ]
  @ [
      ("obs.spans", spans);
      ("obs.export_s", span "obs.export");
      ("obs.export_bytes", sim "obs.export_bytes");
      ("analysis.critical_path_s", cp_s);
      ("analysis.paths", sim "analysis.paths");
      ("analysis.ns_per_span", per (cp_s *. 1e9) spans);
      ("fault.violations", sim "fault.violations");
      ("fault.check_s", span "fault.check");
      ("fault.service_gap_ms", sim "fault.service_gap_ms");
      ("bench.self_s", bench_self);
    ]

let layer_units =
  [
    ("sim.events", "count"); ("sim.loop_s", "s"); ("sim.ns_per_event", "ns");
    ("sim.minor_words_per_event", "words"); ("sim.promoted_share", "share");
    ("sim.major_gcs", "count"); ("workload.plan_s", "s");
    ("workload.plan_words_per_request", "words"); ("workload.summarise_s", "s");
    ("workload.backlog_share", "share"); ("shard.run_s", "s"); ("shard.cross_share", "share");
    ("net.msgs_per_delivery.abcast", "msgs"); ("net.msgs_per_delivery.consensus", "msgs");
    ("net.msgs_per_delivery.rbcast", "msgs"); ("net.wire_bytes_per_delivery", "bytes");
    ("net.max_nic_util", "share"); ("core.group_create_s", "s"); ("core.mean_batch", "msgs");
    ("core.instances", "count"); ("core.cpu_util", "share"); ("core.crossings_per_msg", "count");
    ("core.estimates_per_decision", "ratio"); ("core.rbcast_relays_per_broadcast", "ratio");
    ("obs.spans", "count"); ("obs.words_per_span", "words"); ("obs.export_s", "s");
    ("obs.export_bytes", "bytes"); ("obs.span_overhead_s", "s");
    ("analysis.critical_path_s", "s"); ("analysis.paths", "count"); ("analysis.ns_per_span", "ns");
    ("fault.violations", "count"); ("fault.check_s", "s"); ("fault.service_gap_ms", "ms");
    ("bench.self_s", "s"); ("bench.trace_overhead_s", "s");
  ]

let traced_run (w : W.workload) ~seed ~seconds =
  let reference, _ = iteration w ~seed ~traced:false W.Main in
  let ref_digest = W.digest reference and ref_sim = W.sim_digest reference in
  (* traced-crash records every protocol span; its metrics-only twin (same
     config and seed) prices that recording. *)
  let with_twin = w.W.name = "traced-crash" in
  let started = now () in
  let rec loop rounds =
    if keep_going ~started ~seconds (List.length rounds) then begin
      let untraced, _ = iteration w ~seed ~traced:false W.Main in
      let traced = iteration w ~seed ~traced:true W.Main in
      let twin =
        if with_twin then Some (iteration w ~seed ~traced:true W.Metrics_only) else None
      in
      loop ((untraced, traced, twin) :: rounds)
    end
    else rounds
  in
  let rounds = loop [] in
  let reproduced =
    List.for_all
      (fun (u, (t, _), twin) ->
        W.digest u = ref_digest && W.digest t = ref_digest
        && match twin with Some (m, _) -> W.sim_digest m = ref_sim | None -> true)
      rounds
  in
  print_checks reference;
  print_latency reference;
  let correct, failed = verdict reference ~reproduced in
  let med f = median (List.map f rounds) in
  let per_round = List.map (fun (_, (t, tr), _) -> layer_figures t tr) rounds in
  let figure name = median (List.map (List.assoc name) per_round) in
  let twin f =
    med (fun (_, (t, tr), twin) ->
        match twin with Some (m, mtr) -> f (t, tr) -. f (m, mtr) | None -> 0.0)
  in
  let cross =
    [
      ( "obs.words_per_span",
        if reference.W.spans = 0 then 0.0
        else twin (fun (it, _) -> it.W.loop.W.minor) /. float_of_int reference.W.spans );
      ("obs.span_overhead_s", twin (fun (_, tr) -> Wspan.total tr "sim.loop"));
      ( "bench.trace_overhead_s",
        med (fun (_, (t, _), _) -> t.W.wall_s) -. med (fun (u, _, _) -> u.W.wall_s) );
    ]
  in
  Printf.printf "rounds %d\n" (List.length rounds);
  {
    Result_line.correct;
    attempted = reference.W.attempted;
    failed;
    metrics =
      List.map
        (fun (name, unit_) ->
          let value =
            match List.assoc_opt name cross with Some v -> v | None -> figure name
          in
          metric name unit_ value)
        layer_units;
  }

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|shard-hot|traced-crash --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun _ -> usage ())
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.W.name = !workload) W.all with
    | Some w -> w
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seconds = float_of_int !seconds in
  let result =
    if !trace = 0 then timed_run w ~seed:!seed ~seconds else traced_run w ~seed:!seed ~seconds
  in
  List.iter
    (fun m -> Printf.printf "%s = %.17g %s\n" m.Result_line.name m.Result_line.value m.Result_line.unit_)
    result.Result_line.metrics;
  print_endline (Result_line.render result)
