open Repro_sim
open Repro_net
open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl

type row = {
  kind : Replica.kind;
  scenario : string;
  result : Experiment.result;
}

let span_of_s s = Time.span_ns (int_of_float (s *. 1e9))

let scenarios ~warmup_s ~n =
  let at s = span_of_s (warmup_s +. s) in
  let maj = (n / 2) + 1 in
  let majority_block = List.init maj (fun i -> i) in
  let minority_block = List.init (n - maj) (fun i -> maj + i) in
  [
    ("none", []);
    ("crash-coord", [ { Schedule.at = at 1.0; action = Schedule.Crash 0 } ]);
    ( "loss-2pct",
      [
        { Schedule.at = at 1.0; action = Schedule.Loss_rate 0.02 };
        { Schedule.at = at 3.0; action = Schedule.Loss_rate 0.0 };
      ] );
    ( "partition-heal",
      [
        {
          Schedule.at = at 1.0;
          action = Schedule.Partition [ majority_block; minority_block ];
        };
        { Schedule.at = at 2.0; action = Schedule.Heal_all };
      ] );
  ]

let run ?(kinds = [ Replica.Modular; Replica.Monolithic ]) ?(offered_load = 1000.0)
    ?(size = 1024) ?(warmup_s = 1.0) ?(measure_s = 4.0) ?(obs = Obs.noop)
    ?(on_row = fun _ -> ()) ?jobs ~n () =
  (* One task per (stack, scenario) cell. The study gauges go on the
     task-private sink; [Parmap] absorbs sinks in cell order, so the
     shared [obs] ends up exactly as the sequential nested loop left it.
     [on_row] likewise fires in cell order from the collector. *)
  let cells =
    List.concat_map
      (fun kind -> List.map (fun sc -> (kind, sc)) (scenarios ~warmup_s ~n))
      kinds
  in
  Parmap.map ?jobs ~obs
    ~collect:(fun _ row -> on_row row)
    (fun ~obs (kind, (scenario, schedule)) ->
      let transport =
        if Schedule.drops_messages schedule then Params.Lossy 0.0
        else Params.Tcp_like
      in
      let params = { (Params.default ~n) with Params.transport = transport } in
      let config =
        Experiment.config ~kind ~n ~offered_load ~size ~warmup_s ~measure_s
          ~params
          ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config)
          ()
      in
      let result =
        Experiment.run ~obs
          ~on_group:(fun g -> ignore (Nemesis.install_exn g schedule))
          config
      in
      let row = { kind; scenario; result } in
      if Obs.enabled obs then begin
        let prefix =
          Printf.sprintf "study.%s.%s" (Experiment.kind_name kind) scenario
        in
        Obs.set_gauge obs (prefix ^ ".latency_ms")
          result.Experiment.early_latency_ms.Stats.mean;
        Obs.set_gauge obs (prefix ^ ".throughput") result.Experiment.throughput
      end;
      row)
    cells

let baseline rows kind =
  List.find_opt (fun r -> r.kind = kind && r.scenario = "none") rows

let degradation rows row =
  if row.scenario = "none" then None
  else
    match baseline rows row.kind with
    | None -> None
    | Some b ->
      Some
        ( row.result.Experiment.early_latency_ms.Stats.mean
          /. b.result.Experiment.early_latency_ms.Stats.mean,
          row.result.Experiment.throughput /. b.result.Experiment.throughput )

let row_json row =
  Jsonl.Obj
    [
      ("type", Jsonl.String "study");
      ("stack", Jsonl.String (Experiment.kind_name row.kind));
      ("scenario", Jsonl.String row.scenario);
      ("n", Jsonl.Int row.result.Experiment.config.Experiment.n);
      ("latency_ms", Jsonl.Float row.result.Experiment.early_latency_ms.Stats.mean);
      ("ci95_ms", Jsonl.Float row.result.Experiment.early_latency_ms.Stats.ci95);
      ("throughput", Jsonl.Float row.result.Experiment.throughput);
      ("cpu", Jsonl.Float row.result.Experiment.cpu_utilization);
    ]

let pp_row ppf row =
  Fmt.pf ppf "%-10s %-14s n=%d | lat %7.3f ±%5.3f ms | tput %7.1f/s | CPU %3.0f%%"
    (Experiment.kind_name row.kind) row.scenario
    row.result.Experiment.config.Experiment.n
    row.result.Experiment.early_latency_ms.Stats.mean
    row.result.Experiment.early_latency_ms.Stats.ci95
    row.result.Experiment.throughput
    (100.0 *. row.result.Experiment.cpu_utilization)

(* ---- The message-adversary sweep (robustness vs. performance) ---- *)

type adversary_row = {
  kind : Replica.kind;
  level : Adversary.level;
  result : Experiment.result;
  classification : Monitor.degradation;
  violations : Monitor.violation list;
  adv : Network.adversary_stats;
  tampered_detected : int;
  tampered_silent : int;
}

let adversary_off =
  {
    Adversary.name = "off";
    drop_budget = 0;
    corrupt = 0.0;
    duplicate = 0.0;
    reorder = Time.span_ns 0;
    equivocate = 0.0;
  }

let run_adversary
    ?(kinds = [ Replica.Modular; Replica.Monolithic; Replica.Indirect ])
    ?(offered_load = 1000.0) ?(size = 1024) ?(warmup_s = 1.0) ?(measure_s = 4.0)
    ?(settle_s = 5.0) ?(seed = 0) ?(obs = Obs.noop) ?(on_row = fun _ -> ())
    ?jobs ~n () =
  let cells =
    List.concat_map
      (fun kind -> List.map (fun lv -> (kind, lv)) (Adversary.levels ~n))
      kinds
  in
  Parmap.map ?jobs ~obs
    ~collect:(fun _ row -> on_row row)
    (fun ~obs (kind, level) ->
      (* Arm every knob at the start of the measurement window, disarm at
         its end, then settle: the graceful-degradation question is
         whether everything admitted under the adversary is eventually
         delivered once it stops. *)
      let schedule =
        Adversary.schedule_of_level ~at:(span_of_s warmup_s) level
        @ Adversary.schedule_of_level
            ~at:(span_of_s (warmup_s +. measure_s))
            adversary_off
      in
      (* Every cell runs on [Tcp_like]: the fan-out powers (drop budget,
         equivocation) act on wire-level multicasts, which the per-link
         rchannels of the [Lossy] transport would bypass; the [off] level
         is then exactly the plain benchmark baseline. *)
      let params = Params.default ~n in
      let config =
        Experiment.config ~kind ~n ~offered_load ~size ~warmup_s ~measure_s
          ~seed ~params
          ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config)
          ()
      in
      let captured = ref None in
      let result =
        Experiment.run ~obs
          ~on_group:(fun g ->
            let m = Monitor.create ~seed ~schedule ~n () in
            Monitor.attach m g;
            ignore (Nemesis.install_exn g schedule);
            captured := Some (g, m))
          config
      in
      let group, monitor =
        match !captured with Some gm -> gm | None -> assert false
      in
      Group.run_for group (span_of_s settle_s);
      Monitor.check_final monitor ~correct:(Pid.all ~n) ();
      let row =
        {
          kind;
          level;
          result;
          classification = Monitor.classify monitor;
          violations = Monitor.violations monitor;
          adv = Network.adversary_stats (Group.network group);
          tampered_detected = Monitor.tampered_detected monitor;
          tampered_silent = Monitor.tampered_silent monitor;
        }
      in
      if Obs.enabled obs then begin
        let prefix =
          Printf.sprintf "study.adv.%s.%s" (Experiment.kind_name kind)
            level.Adversary.name
        in
        Obs.set_gauge obs (prefix ^ ".latency_ms")
          result.Experiment.early_latency_ms.Stats.mean;
        Obs.set_gauge obs (prefix ^ ".throughput") result.Experiment.throughput
      end;
      row)
    cells

let adversary_baseline rows kind =
  List.find_opt
    (fun r -> r.kind = kind && r.level.Adversary.name = "off")
    rows

let adversary_degradation rows row =
  if row.level.Adversary.name = "off" then None
  else
    match adversary_baseline rows row.kind with
    | None -> None
    | Some b ->
      Some
        ( row.result.Experiment.early_latency_ms.Stats.mean
          /. b.result.Experiment.early_latency_ms.Stats.mean,
          row.result.Experiment.throughput /. b.result.Experiment.throughput )

let adversary_row_json row =
  let base =
    [
      ("type", Jsonl.String "study-adversary");
      ("stack", Jsonl.String (Experiment.kind_name row.kind));
      ("level", Jsonl.String row.level.Adversary.name);
      ("n", Jsonl.Int row.result.Experiment.config.Experiment.n);
      ("latency_ms", Jsonl.Float row.result.Experiment.early_latency_ms.Stats.mean);
      ("throughput", Jsonl.Float row.result.Experiment.throughput);
      ("degradation", Jsonl.String (Monitor.degradation_name row.classification));
      ("violations", Jsonl.Int (List.length row.violations));
      ("adv_dropped", Jsonl.Int row.adv.Network.adv_dropped);
      ("adv_corrupted", Jsonl.Int row.adv.Network.adv_corrupted);
      ("adv_duplicated", Jsonl.Int row.adv.Network.adv_duplicated);
      ("adv_reordered", Jsonl.Int row.adv.Network.adv_reordered);
      ("adv_equivocated", Jsonl.Int row.adv.Network.adv_equivocated);
      ("tampered_detected", Jsonl.Int row.tampered_detected);
      ("tampered_silent", Jsonl.Int row.tampered_silent);
    ]
  in
  let tail =
    match row.violations with
    | [] -> []
    | v :: _ ->
      [
        ("invariant", Jsonl.String (Monitor.invariant_name v.Monitor.invariant));
        ("detail", Jsonl.String v.Monitor.detail);
      ]
  in
  Jsonl.Obj (base @ tail)

let pp_adversary_row ppf row =
  Fmt.pf ppf
    "%-10s %-6s n=%d | lat %7.3f ms | tput %7.1f/s | drop %4d corr %3d dup %4d \
     reord %4d equiv %3d | caught %d/%d | %s"
    (Experiment.kind_name row.kind) row.level.Adversary.name
    row.result.Experiment.config.Experiment.n
    row.result.Experiment.early_latency_ms.Stats.mean
    row.result.Experiment.throughput row.adv.Network.adv_dropped
    row.adv.Network.adv_corrupted row.adv.Network.adv_duplicated
    row.adv.Network.adv_reordered row.adv.Network.adv_equivocated
    row.tampered_detected
    (row.tampered_detected + row.tampered_silent)
    (Monitor.degradation_name row.classification)
