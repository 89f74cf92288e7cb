open Repro_sim
open Repro_net
open Repro_core
module Stats = Repro_obs.Stats
module Obs = Repro_obs.Obs

type config = {
  kind : Replica.kind;
  n : int;
  offered_load : float;
  size : int;
  warmup_s : float;
  measure_s : float;
  seed : int;
  params : Params.t;
  fd_mode : Replica.fd_mode;
  arrival : Generator.arrival;
}

let config ~kind ~n ~offered_load ~size ?(warmup_s = 2.0) ?(measure_s = 8.0) ?(seed = 0)
    ?params ?(fd_mode = `Good_run) ?(arrival = Generator.Uniform) () =
  let params = match params with Some p -> { p with Params.n } | None -> Params.default ~n in
  { kind; n; offered_load; size; warmup_s; measure_s; seed; params; fd_mode; arrival }

type result = {
  config : config;
  early_latency_ms : Stats.summary;
  throughput : float;
  admitted_rate : float;
  mean_batch : float;
  msgs_per_instance : float;
  bytes_per_instance : float;
  cpu_utilization : float;
  max_nic_utilization : float;
  boundary_crossings_per_msg : float;
  events_executed : int;
}

let span_of_s s = Time.span_ns (int_of_float (s *. 1e9))

let total_busy_ns group =
  let params = Group.params group in
  let net = Group.network group in
  List.fold_left
    (fun acc pid -> acc + Time.span_to_ns (Cpu.busy_time (Network.cpu net pid)))
    0
    (Pid.all ~n:params.Params.n)

let nic_busy_list group =
  let params = Group.params group in
  let net = Group.network group in
  List.map
    (fun pid -> Time.span_to_ns (Network.nic_busy_time net pid))
    (Pid.all ~n:params.Params.n)

let total_crossings group =
  let params = Group.params group in
  List.fold_left
    (fun acc pid ->
      acc + Repro_framework.Stack.boundary_crossings (Replica.stack (Group.replica group pid)))
    0
    (Pid.all ~n:params.Params.n)

(* A run staged as a group plus timed milestones. [run_raw] executes the
   milestones back to back with [Engine.run_until]; the replay driver
   ([lib/replay]) executes the very same list while slicing the in-between
   stretches at frame boundaries — both orderings are event-identical
   because milestones fire outside the event loop at exact clock values
   the engine reaches anyway. *)
type window_sample = {
  mutable w_at : Time.t;
  mutable w_stats : Net_stats.snapshot;
  mutable w_delivered : int array;
  mutable w_admitted : int;
  mutable w_instances : int;
  mutable w_busy : int;
  mutable w_nic : int list;
  mutable w_crossings : int;
}

type staged = {
  st_group : Group.t;
  st_generator : Generator.t;
  st_milestones : (Time.t * (unit -> unit)) list; (* ascending, absolute *)
  st_result : unit -> float list * result;
}

let sample group =
  {
    w_at = Engine.now (Group.engine group);
    w_stats = Net_stats.snapshot (Group.stats group);
    w_delivered = Group.delivered_counts group;
    w_admitted = Group.total_admitted group;
    w_instances = Replica.instances_decided (Group.replica group 0);
    w_busy = total_busy_ns group;
    w_nic = nic_busy_list group;
    w_crossings = total_crossings group;
  }

let assign_sample dst src =
  dst.w_at <- src.w_at;
  dst.w_stats <- src.w_stats;
  dst.w_delivered <- src.w_delivered;
  dst.w_admitted <- src.w_admitted;
  dst.w_instances <- src.w_instances;
  dst.w_busy <- src.w_busy;
  dst.w_nic <- src.w_nic;
  dst.w_crossings <- src.w_crossings

(* Metrics over the measurement window [s0, s1] — shared by the
   generator-driven [stage] and the script-driven [run_scripted]. *)
let window_result ~obs config group s0 s1 =
  let t_start = s0.w_at and t_end = s1.w_at in
  let window_s = Time.span_to_ms_float (Time.diff t_end t_start) /. 1e3 in
  (* Early latency over messages abcast within the window. Messages abcast
     near the window end may not be delivered yet; like the paper we only
     average over completed deliveries. *)
  let latencies =
    Group.latencies group
    |> List.filter_map (fun (r : Group.latency_record) ->
           if Time.(r.abcast_at >= t_start) && Time.(r.abcast_at <= t_end) then
             Some (Time.span_to_ms_float (Time.diff r.first_delivery r.abcast_at))
           else None)
  in
  let delivered_window =
    Array.mapi (fun i d1 -> d1 - s0.w_delivered.(i)) s1.w_delivered |> Array.to_list
  in
  let throughput =
    Stats.mean (List.map float_of_int delivered_window) /. window_s
  in
  let instances = s1.w_instances - s0.w_instances in
  let finstances = float_of_int (max 1 instances) in
  let delta = Net_stats.diff s1.w_stats s0.w_stats in
  let delivered_p1 = delivered_window |> List.hd in
  (* Run-level gauges: the window-normalized quantities the per-layer
     counters cannot express (those are cumulative and include warm-up). *)
  if Obs.enabled obs then begin
    Obs.set_gauge obs "run.instances" (float_of_int instances);
    Obs.set_gauge obs "run.window_s" window_s;
    Obs.set_gauge obs "run.mean_batch" (float_of_int delivered_p1 /. finstances);
    Obs.set_gauge obs "run.throughput" throughput;
    Obs.set_gauge obs "run.msgs_per_instance"
      (float_of_int delta.Net_stats.messages /. finstances)
  end;
  ( latencies,
    {
      config;
      early_latency_ms = Stats.summarize latencies;
      throughput;
      admitted_rate = float_of_int (s1.w_admitted - s0.w_admitted) /. window_s;
      mean_batch = float_of_int delivered_p1 /. finstances;
      msgs_per_instance = float_of_int delta.Net_stats.messages /. finstances;
      bytes_per_instance = float_of_int delta.Net_stats.payload_bytes /. finstances;
      cpu_utilization =
        float_of_int (s1.w_busy - s0.w_busy)
        /. (window_s *. 1e9 *. float_of_int config.n);
      max_nic_utilization =
        (let deltas = List.map2 (fun a b -> a - b) s1.w_nic s0.w_nic in
         float_of_int (List.fold_left max 0 deltas) /. (window_s *. 1e9));
      boundary_crossings_per_msg =
        float_of_int (s1.w_crossings - s0.w_crossings)
        /. float_of_int (max 1 (List.fold_left ( + ) 0 delivered_window));
      events_executed = Engine.events_executed (Group.engine group);
    } )

let stage ?(obs = Obs.noop) ?on_group config =
  let params = { config.params with Params.n = config.n; seed = config.seed } in
  let group =
    Group.create ~kind:config.kind ~params ~fd_mode:config.fd_mode
      ~record_deliveries:false ~obs ()
  in
  Option.iter (fun f -> f group) on_group;
  let generator =
    Generator.start group ~offered_load:config.offered_load ~size:config.size
      ~arrival:config.arrival ()
  in
  let s0 = sample group and s1 = sample group in
  let warmup_end = Time.add Time.zero (span_of_s config.warmup_s) in
  let measure_end = Time.add warmup_end (span_of_s config.measure_s) in
  let milestones =
    [
      (* Window-start snapshot. *)
      (warmup_end, fun () -> assign_sample s0 (sample group));
      ( measure_end,
        fun () ->
          Generator.stop generator;
          (* Window-end snapshot. *)
          assign_sample s1 (sample group) );
    ]
  in
  let result () = window_result ~obs config group s0 s1 in
  { st_group = group; st_generator = generator; st_milestones = milestones; st_result = result }

let run_raw ?obs ?on_group config =
  let st = stage ?obs ?on_group config in
  let engine = Group.engine st.st_group in
  List.iter
    (fun (at, act) ->
      Engine.run_until engine at;
      act ())
    st.st_milestones;
  st.st_result ()

let run ?obs ?on_group config = snd (run_raw ?obs ?on_group config)

let run_repeated ?(repeats = 3) ?jobs ?(obs = Obs.noop) ?on_group config =
  if repeats < 1 then invalid_arg "Experiment.run_repeated: repeats must be >= 1";
  let runs =
    Parmap.map ?jobs ~obs
      (fun ~obs i -> run_raw ~obs ?on_group { config with seed = config.seed + i })
      (List.init repeats Fun.id)
  in
  let pooled_latencies = List.concat_map fst runs in
  let results = List.map snd runs in
  let mean f = Stats.mean (List.map f results) in
  {
    config;
    early_latency_ms = Stats.summarize pooled_latencies;
    throughput = mean (fun r -> r.throughput);
    admitted_rate = mean (fun r -> r.admitted_rate);
    mean_batch = mean (fun r -> r.mean_batch);
    msgs_per_instance = mean (fun r -> r.msgs_per_instance);
    bytes_per_instance = mean (fun r -> r.bytes_per_instance);
    cpu_utilization = mean (fun r -> r.cpu_utilization);
    max_nic_utilization = mean (fun r -> r.max_nic_utilization);
    boundary_crossings_per_msg = mean (fun r -> r.boundary_crossings_per_msg);
    events_executed =
      List.fold_left (fun acc r -> acc + r.events_executed) 0 results;
  }

(* Script-driven variant of [run]: the offer process is a precomputed
   {!Population} arrival script instead of the symmetric generator, and
   the per-arrival admission/delivery instants come back alongside the
   window metrics so a sharding layer can join cross-shard legs. *)
let run_scripted ?(obs = Obs.noop) ~kind ~n ?params ?(fd_mode = `Good_run)
    ?(seed = 0) ~warmup_s ~measure_s ~arrivals ~loop () =
  let horizon_s = warmup_s +. measure_s in
  let offered_load =
    if horizon_s > 0.0 then float_of_int (Array.length arrivals) /. horizon_s
    else 0.0
  in
  let size =
    if Array.length arrivals > 0 then arrivals.(0).Population.size else 0
  in
  let config =
    config ~kind ~n ~offered_load ~size ~warmup_s ~measure_s ~seed ?params
      ~fd_mode ()
  in
  let params = { config.params with Params.n; seed } in
  let group =
    Group.create ~kind ~params ~fd_mode ~record_deliveries:false ~obs ()
  in
  let script = Script.attach group ~arrivals ~loop in
  let s0 = sample group and s1 = sample group in
  let warmup_end = Time.add Time.zero (span_of_s warmup_s) in
  let measure_end = Time.add warmup_end (span_of_s measure_s) in
  let engine = Group.engine group in
  Engine.run_until engine warmup_end;
  assign_sample s0 (sample group);
  Engine.run_until engine measure_end;
  Script.stop script;
  assign_sample s1 (sample group);
  let latencies, result = window_result ~obs config group s0 s1 in
  (Script.resolve script, latencies, result)

let kind_name = function
  | Replica.Modular -> "modular"
  | Replica.Monolithic -> "monolithic"
  | Replica.Indirect -> "indirect"

let pp_result ppf r =
  Fmt.pf ppf
    "%-10s n=%d load=%6.0f/s size=%6dB | lat %7.3f ±%5.3f ms | tput %7.1f/s | M=%4.1f | \
     msgs/inst %5.1f | CPU %3.0f%% | NIC %3.0f%%"
    (kind_name r.config.kind) r.config.n r.config.offered_load r.config.size
    r.early_latency_ms.Stats.mean r.early_latency_ms.Stats.ci95 r.throughput r.mean_batch
    r.msgs_per_instance
    (100.0 *. r.cpu_utilization)
    (100.0 *. r.max_nic_utilization)
