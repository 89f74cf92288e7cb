(* The three workloads, each run as one iteration that yields its
   simulated results, its cost, and the outcome of its correctness checks.
   Calls into the simulator's layers are wrapped in benchmark spans. *)

open Repro_core
open Repro_workload
module Obs = Repro_obs.Obs
module Time = Repro_sim.Time
module Engine = Repro_sim.Engine
module Jsonl = Repro_obs.Jsonl
module Monitor = Repro_fault.Monitor
module Nemesis = Repro_fault.Nemesis
module Schedule = Repro_fault.Schedule
module Critical_path = Repro_analysis.Critical_path
module Shard = Repro_shard.Shard
module Quantile = Perfbench.Quantile
module Wspan = Perfbench.Wspan
module Probe = Perfbench.Probe

let span_of_s s = Time.span_ns (int_of_float (s *. 1e9))
let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  (Quantile.of_sorted a 0.5).Quantile.value

let setup_repeats = 15

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A set-up step timed from an empty minor heap up to the collection of
   what it allocated, so whether an earlier step left a minor collection
   due does not decide its time. *)
let timed_setup f =
  Gc.minor ();
  timed (fun () ->
      let v = f () in
      Gc.minor ();
      v)

(* ---- What one iteration of a workload yields ---- *)

(* Minor words, promoted words and major collections spent inside the
   engine loops of one iteration. *)
type loop_acc = { mutable minor : float; mutable promoted : float; mutable majors : int }

let new_acc () = { minor = 0.0; promoted = 0.0; majors = 0 }

let in_loop acc f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  acc.minor <- acc.minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  acc.promoted <- acc.promoted +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  acc.majors <- acc.majors + (s1.Gc.major_collections - s0.Gc.major_collections);
  v

type iter = {
  setup_s : float;  (** Plan construction and world build. *)
  wall_s : float;  (** Simulation and analysis phase, after set-up. *)
  setup_probed : float;
  wall_probed : float;
      (** [setup_s] and [wall_s] with each stretch divided by the machine
          probe read on either side of it, times {!Probe.ref_s}. *)
  minor_words : float;  (** Whole iteration, set-up included. *)
  plan_words : float;  (** Words allocated building the plan, per request. *)
  loop : loop_acc;
  adeliveries : int;  (** Simulated adeliveries, every process. *)
  events : int;
  p50 : Quantile.t;
  p99 : Quantile.t;
  tput : float;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  sim_layer : (string * float) list;
      (** Per-layer values that are functions of the simulation alone;
          with [events] and the figures above they form the digest that
          must repeat exactly. *)
  spans : int;  (** Protocol spans the iteration's [Obs] sink retained. *)
}

(* The simulated results proper: what must repeat exactly whatever the
   sink records (metrics only or every span). *)
let sim_digest it =
  Printf.sprintf "%d|%d|%d|%.17g|%.17g|%d|%.17g|%d|%d" it.events it.adeliveries
    it.p50.Quantile.samples it.p50.Quantile.value it.p99.Quantile.value it.p99.Quantile.beyond
    it.tput it.attempted it.failed

let digest it =
  String.concat "|"
    (sim_digest it :: List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) it.sim_layer)

(* ---- Delivery logs and the per-request outcome check ---- *)

(* Growable int vector: one per process, the ids it adelivered in order. *)
type vec = { mutable data : int array; mutable len : int }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 1024 (2 * v.len)) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let encode (id : App_msg.id) = (id.App_msg.origin lsl 40) lor id.App_msg.seq
let origin_of code = code lsr 40
let seq_of code = code land ((1 lsl 40) - 1)

type logs = {
  n : int;
  per_pid : vec array;
  mutable window_start_offers : int array;
  mutable window_end_offers : int array;
  (* Longest stretch with no adelivery at a correct process between the
     crash and the end of the window (crash-schedule cells only). *)
  gap_window : (Time.t * Time.t) option;
  mutable last_at : Time.t;
  mutable max_gap : Time.span;
}

let attach_logs ?gap_window ~correct group =
  let n = (Group.params group).Params.n in
  let logs =
    {
      n;
      per_pid = Array.init n (fun _ -> { data = [||]; len = 0 });
      window_start_offers = Array.make n 0;
      window_end_offers = Array.make n 0;
      gap_window;
      last_at = (match gap_window with Some (from, _) -> from | None -> Time.zero);
      max_gap = Time.span_zero;
    }
  in
  let engine = Group.engine group in
  Group.on_delivery group (fun pid m ->
      vec_push logs.per_pid.(pid) (encode m.App_msg.id);
      match logs.gap_window with
      | Some (from, until) when List.mem pid correct ->
        let at = Engine.now engine in
        if Time.(at >= from) && Time.(at <= until) then begin
          logs.max_gap <- Time.span_max logs.max_gap (Time.diff at logs.last_at);
          logs.last_at <- at
        end
      | _ -> ());
  logs

let offers group = Array.init (Group.params group).Params.n (fun p -> Replica.offered (Group.replica group p))

type outcome = {
  o_attempted : int;
  o_undelivered : int;
  o_misordered : int;
  o_agreement : bool;
}

(* Requests offered in the window at processes that stay correct (a
   crashed process may lose its own, by the abcast contract). Offer k at
   process p is admitted as p#k, so the window's requests are known by id.
   A request fails when some correct process never adelivered it or
   adelivered it at a position where the processes' orders disagree. *)
let outcome ~correct logs =
  let ref_log =
    List.fold_left
      (fun best p -> if logs.per_pid.(p).len > best.len then logs.per_pid.(p) else best)
      logs.per_pid.(List.hd correct) correct
  in
  let misordered = Hashtbl.create 16 in
  (* [delivered.(q).(o)] marks the sequence numbers of origin [o] that
     correct process [q] adelivered (a crashed process's row stays empty). *)
  let delivered =
    Array.init logs.n (fun q ->
        let marks = Array.init logs.n (fun o -> Bytes.make (logs.window_end_offers.(o) + 1) '\000') in
        if List.mem q correct then begin
          let v = logs.per_pid.(q) in
          for i = 0 to v.len - 1 do
            let c = v.data.(i) in
            if c <> ref_log.data.(i) then Hashtbl.replace misordered c ();
            let o = origin_of c and s = seq_of c in
            if s < Bytes.length marks.(o) then Bytes.set marks.(o) s '\001'
          done
        end;
        marks)
  in
  let attempted = ref 0 and undelivered = ref 0 and misordered_in = ref 0 in
  List.iter
    (fun p ->
      for s = logs.window_start_offers.(p) to logs.window_end_offers.(p) - 1 do
        incr attempted;
        let code = (p lsl 40) lor s in
        if Hashtbl.mem misordered code then incr misordered_in
        else if List.exists (fun q -> Bytes.get delivered.(q).(p) s = '\000') correct then
          incr undelivered
      done)
    correct;
  let agreement =
    Hashtbl.length misordered = 0
    && List.for_all (fun p -> logs.per_pid.(p).len = ref_log.len) correct
  in
  { o_attempted = !attempted; o_undelivered = !undelivered; o_misordered = !misordered_in;
    o_agreement = agreement }

(* ---- Experiment cells (paper, traced-crash) ---- *)

type cell_out = {
  c_setup_s : float;
  c_wall_s : float;
  c_lats : float list;
  c_result : Experiment.result;
  c_events : int;
  c_outcome : outcome;
  c_obs : Obs.t;
  c_extra_failed : int;
  c_checks : (string * bool) list;
  c_gap_ms : float;
  c_violations : int;
  c_paths : int;
  c_export_bytes : int;
}

type cell_spec = {
  config : Experiment.config;
  tracing : bool;  (** Full span recording, else a metrics-only sink. *)
  crash : (float * int) option;  (** Crash (seconds from start, pid). *)
  settle : [ `Quiescent | `For of float ];
}

let run_cell tr acc spec =
  let config = spec.config in
  let n = config.Experiment.n in
  let make_obs () = if spec.tracing then Obs.create () else Obs.create ~max_events:0 () in
  let crashed = match spec.crash with Some (_, p) -> [ p ] | None -> [] in
  let correct = List.filter (fun p -> not (List.mem p crashed)) (List.init n Fun.id) in
  let warmup_end = Time.add Time.zero (span_of_s config.Experiment.warmup_s) in
  let measure_end = Time.add warmup_end (span_of_s config.Experiment.measure_s) in
  let logs = ref None and monitor = ref None in
  let stage obs =
    Experiment.stage ~obs
      ~on_group:(fun g ->
        let gap_window =
          Option.map (fun (at, _) -> (Time.add Time.zero (span_of_s at), measure_end)) spec.crash
        in
        logs := Some (attach_logs ?gap_window ~correct g);
        Option.iter
          (fun (at, p) ->
            let schedule =
              match
                Schedule.of_string
                  (Printf.sprintf "at %dms crash p%d" (int_of_float (at *. 1e3)) (p + 1))
              with
              | Ok s -> s
              | Error e -> failwith e
            in
            let m = Monitor.create ~seed:config.Experiment.seed ~schedule ~n () in
            Monitor.attach m g;
            ignore (Nemesis.install_exn g schedule);
            monitor := Some m)
          spec.crash)
      config
  in
  (* A world build takes well under a millisecond, too little to time
     once: build it [setup_repeats] times and keep the median. Only the
     last build runs; the others are dropped before their first event. *)
  let setup_times =
    List.init (setup_repeats - 1) (fun _ -> snd (timed_setup (fun () -> stage (make_obs ()))))
  in
  let obs = make_obs () in
  let (st : Experiment.staged), last_setup =
    timed_setup (fun () -> Wspan.record tr "core.group_create" (fun () -> stage obs))
  in
  let setup_s = median (last_setup :: setup_times) in
  let logs = Option.get !logs in
  let group = st.Experiment.st_group in
  let engine = Group.engine group in
  let analysis () =
    Wspan.record tr "sim.loop" (fun () ->
        in_loop acc (fun () ->
            List.iter
              (fun (at, act) ->
                Engine.run_until engine at;
                act ();
                if Time.compare at warmup_end = 0 then logs.window_start_offers <- offers group;
                if Time.compare at measure_end = 0 then logs.window_end_offers <- offers group)
              st.Experiment.st_milestones));
    let lats, result = Wspan.record tr "workload.summarise" st.Experiment.st_result in
    (* Let the messages offered in the window drain, so that a request
       missing at a correct process is a loss, not one still in flight. *)
    Wspan.record tr "sim.loop" (fun () ->
        in_loop acc (fun () ->
            match spec.settle with
            | `Quiescent -> ignore (Group.run_until_quiescent group ~limit:(Time.span_s 10) ())
            | `For s -> Group.run_for group (span_of_s s)));
    let gap_ms =
      match spec.crash with
      | None -> 0.0
      | Some _ ->
        Time.span_to_ms_float (Time.span_max logs.max_gap (Time.diff measure_end logs.last_at))
    in
    let oc = outcome ~correct logs in
    let violations =
      match !monitor with
      | None -> []
      | Some m ->
        Wspan.record tr "fault.check" (fun () ->
            Monitor.check_final m ~correct ();
            Monitor.violations m)
    in
    let checks = ref [ ("agreement", oc.o_agreement) ] and extra_failed = ref 0 in
    if Option.is_some !monitor then checks := ("monitor", violations = []) :: !checks;
    extra_failed := List.length violations;
    let paths = ref 0 and export_bytes = ref 0 in
    if spec.tracing then begin
      let spans = Obs.spans obs in
      let b =
        Wspan.record tr "analysis.critical_path" (fun () ->
            Critical_path.of_spans ~pid:(List.hd correct) spans)
      in
      paths := b.Critical_path.deliveries;
      let rows_ms =
        List.fold_left (fun a r -> a +. r.Critical_path.total_ms) 0.0 b.Critical_path.rows
      in
      let e2e = b.Critical_path.end_to_end_ms in
      let sums = Float.abs (rows_ms -. e2e) <= 1e-9 *. Float.max 1.0 e2e in
      checks := ("critical-path-sum", sums && b.Critical_path.deliveries > 0) :: !checks;
      checks := ("spans-complete", Obs.dropped_spans obs = 0) :: !checks;
      if not sums then extra_failed := !extra_failed + oc.o_attempted;
      let buf = Buffer.create (1 lsl 20) in
      Wspan.record tr "obs.export" (fun () ->
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            (Jsonl.span_lines obs));
      export_bytes := Buffer.length buf
    end;
    (lats, result, oc, !checks, !extra_failed, gap_ms, List.length violations, !paths, !export_bytes)
  in
  let (lats, result, oc, checks, extra_failed, gap_ms, violations, paths, export_bytes), wall_s =
    timed analysis
  in
  {
    c_setup_s = setup_s;
    c_wall_s = wall_s;
    c_lats = lats;
    c_result = result;
    c_events = Engine.events_executed engine;
    c_outcome = oc;
    c_obs = obs;
    c_extra_failed = extra_failed;
    c_checks = checks;
    c_gap_ms = gap_ms;
    c_violations = violations;
    c_paths = paths;
    c_export_bytes = export_bytes;
  }

let counter_sum obss name = List.fold_left (fun a o -> a + Obs.counter_value o name) 0 obss
let layers = [ "abcast"; "consensus"; "rbcast" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* The traffic and protocol-work ratios every workload reports, from the
   metrics-only counters of its sinks. *)
let core_layer ~obss ~adeliveries ~results =
  let c = counter_sum obss in
  let mean f = Stats.mean (List.map f results) in
  List.map
    (fun l -> ("net.msgs_per_delivery." ^ l, fratio (c ("net.msgs." ^ l)) adeliveries))
    layers
  @ [
      ( "net.wire_bytes_per_delivery",
        fratio (List.fold_left (fun a l -> a + c ("net.wire_bytes." ^ l)) 0 ("net" :: layers)) adeliveries );
      ( "net.max_nic_util",
        List.fold_left (fun a r -> Float.max a r.Experiment.max_nic_utilization) 0.0 results );
      ("core.mean_batch", mean (fun r -> r.Experiment.mean_batch));
      ("core.instances", float_of_int (c "consensus.decisions"));
      ("core.cpu_util", mean (fun r -> r.Experiment.cpu_utilization));
      ("core.crossings_per_msg", mean (fun r -> r.Experiment.boundary_crossings_per_msg));
      ("core.estimates_per_decision", fratio (c "consensus.estimates") (c "consensus.decisions"));
      ("core.rbcast_relays_per_broadcast", fratio (c "rbcast.relays") (c "rbcast.broadcasts"));
    ]

let of_cells cells =
  let sorted = Array.of_list (List.concat_map (fun c -> c.c_lats) cells) in
  Array.sort compare sorted;
  let obss = List.map (fun c -> c.c_obs) cells in
  let adeliveries = counter_sum obss "abcast.adelivers" in
  let results = List.map (fun c -> c.c_result) cells in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cells in
  let attempted = sum (fun c -> c.c_outcome.o_attempted) in
  let failed =
    min attempted
      (sum (fun c -> c.c_outcome.o_undelivered + c.c_outcome.o_misordered + c.c_extra_failed))
  in
  let checks =
    List.concat_map
      (fun c ->
        let tag = Experiment.kind_name c.c_result.Experiment.config.Experiment.kind
                  ^ "/n" ^ string_of_int c.c_result.Experiment.config.Experiment.n in
        ("undelivered", c.c_outcome.o_undelivered = 0)
        :: ("total-order", c.c_outcome.o_misordered = 0)
        :: c.c_checks
        |> List.map (fun (k, ok) -> (tag ^ " " ^ k, ok)))
      cells
  in
  let fsum f = List.fold_left (fun a c -> a +. f c) 0.0 cells in
  {
      setup_s = fsum (fun c -> c.c_setup_s);
      wall_s = fsum (fun c -> c.c_wall_s);
      setup_probed = 0.0;
      wall_probed = 0.0;
      minor_words = 0.0;
      plan_words = 0.0;
      loop = new_acc ();
      adeliveries;
      events = sum (fun c -> c.c_events);
      p50 = Quantile.of_sorted sorted 0.5;
      p99 = Quantile.of_sorted sorted 0.99;
      tput = Stats.mean (List.map (fun r -> r.Experiment.throughput) results);
      attempted;
      failed;
      checks;
      sim_layer =
        core_layer ~obss ~adeliveries ~results
        @ [
            ("fault.violations", float_of_int (sum (fun c -> c.c_violations)));
            ("fault.service_gap_ms", List.fold_left (fun a c -> Float.max a c.c_gap_ms) 0.0 cells);
            ("analysis.paths", float_of_int (sum (fun c -> c.c_paths)));
            ("obs.export_bytes", float_of_int (sum (fun c -> c.c_export_bytes)));
          ];
      spans = List.fold_left (fun a o -> a + Obs.span_count o) 0 obss;
    }

let all_kinds = [ Replica.Modular; Replica.Monolithic; Replica.Indirect ]

(* The paper's §5.1 experiment: every stack at n = 3 and 7, 1 KiB
   messages, 2000 msgs/s Poisson, good-run failure detection, 1 s warm-up
   and an 8 s window. Modular n = 7 saturates at this load. *)
let paper_specs ~seed =
  List.concat_map
    (fun kind ->
      List.map
        (fun n ->
          {
            config =
              Experiment.config ~kind ~n ~offered_load:2000.0 ~size:1024 ~warmup_s:1.0
                ~measure_s:8.0 ~seed ~arrival:Generator.Poisson ();
            tracing = false;
            crash = None;
            settle = `Quiescent;
          })
        [ 3; 7 ])
    all_kinds

(* Every stack at n = 3 under a live heartbeat detector, p1 (the round-1
   coordinator) crashing mid-window, a Monitor attached and every protocol
   span recorded; the spans are then analysed and exported. *)
let crash_specs ~seed ~tracing =
  List.map
    (fun kind ->
      {
        config =
          Experiment.config ~kind ~n:3 ~offered_load:1000.0 ~size:1024 ~warmup_s:0.5
            ~measure_s:3.0 ~seed ~arrival:Generator.Poisson
            ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config) ();
        tracing;
        crash = Some (2.0, 0);
        settle = `For 1.0;
      })
    all_kinds

(* Probe readings interleaved with a workload's stretches. The probe's own
   allocation is kept out of the iteration's minor words. *)
type probes = { read : unit -> float; mutable last : float; mutable words : float }

let probes read = { read; last = read (); words = 0.0 }

(* [scaled p x] scales the stretch [x] that ran since the last reading. *)
let scaled p x =
  let w = Gc.minor_words () in
  let r = p.read () in
  p.words <- p.words +. (Gc.minor_words () -. w);
  let mean = (p.last +. r) /. 2.0 in
  p.last <- r;
  x *. Probe.ref_s /. mean

let run_cells tr ~probe specs =
  let acc = new_acc () in
  let w0 = Gc.minor_words () in
  let p = probes probe in
  let cells, scaled_times =
    List.split
      (List.map
         (fun spec ->
           let c = run_cell tr acc spec in
           let s = scaled p 1.0 in
           (c, (c.c_setup_s *. s, c.c_wall_s *. s)))
         specs)
  in
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 scaled_times in
  {
    (of_cells cells) with
    minor_words = Gc.minor_words () -. w0 -. p.words;
    loop = acc;
    setup_probed = sum fst;
    wall_probed = sum snd;
  }

(* ---- shard-hot ---- *)

(* 64 shards of the modular stack behind the router, a million Zipf
   clients offering 3000 req/s per shard open-loop, 5 % cross-shard, on
   default parameters. *)
let shard_config ~seed =
  let shards = 64 and clients = 1_000_000 and warmup_s = 0.25 and measure_s = 1.0 in
  let profile =
    Population.profile ~clients
      ~rate_per_client:(3000.0 *. float_of_int shards /. float_of_int clients)
      ~cross_fraction:0.05 ()
  in
  Shard.config ~kind:Replica.Modular ~shards ~n:3 ~profile ~warmup_s ~measure_s ~seed ()

let run_shard tr ~probe ~seed =
  let config = shard_config ~seed in
  let p = probes probe in
  let w0 = Gc.minor_words () in
  let a0 = Gc.allocated_bytes () in
  let plan, setup_s =
    timed_setup (fun () -> Wspan.record tr "workload.plan" (fun () -> Shard.plan config))
  in
  let plan_words = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  let setup_probed = scaled p setup_s in
  let obs = Obs.create ~max_events:0 () in
  let acc = new_acc () in
  let (res : Shard.result), wall_s =
    timed (fun () ->
        Wspan.record tr "shard.run" (fun () ->
            in_loop acc (fun () -> Shard.run_planned ~jobs:1 ~obs config plan)))
  in
  let wall_probed = scaled p wall_s in
  let results = Array.to_list res.Shard.per_shard in
  let adeliveries = Obs.counter_value obs "abcast.adelivers" in
  let lat = res.Shard.latency_ms in
  let samples = lat.Stats.count in
  let completed = samples + res.Shard.cross_latency_ms.Stats.count in
  let total = res.Shard.plan_total in
  (* Requests the plan offers inside the window (a cross-shard request sits
     in both partners' scripts). Those without a completed latency sample
     by the end of the horizon are the open-loop backlog of this overloaded
     cell; Shard's result does not say which, so they cannot be scored as
     lost or delivered request by request. *)
  let offered_in_window =
    let t_start = Time.add Time.zero (span_of_s config.Shard.warmup_s) in
    let t_end = Time.add t_start (span_of_s config.Shard.measure_s) in
    let single = ref 0 and cross = ref 0 in
    Array.iter
      (Array.iter (fun (a : Population.arrival) ->
           if Time.(a.Population.at >= t_start) && Time.(a.Population.at <= t_end) then
             if a.Population.remote < 0 then incr single else incr cross))
      plan.Population.scripts;
    !single + (!cross / 2)
  in
  {
    setup_s;
    wall_s;
    setup_probed;
    wall_probed;
    minor_words = Gc.minor_words () -. w0 -. p.words;
    plan_words = ratio plan_words (float_of_int total);
    loop = acc;
    adeliveries;
    events = res.Shard.events_executed;
    p50 = Quantile.of_summary ~samples ~value:lat.Stats.p50 0.5;
    p99 = Quantile.of_summary ~samples ~value:lat.Stats.p99 0.99;
    tput = res.Shard.throughput;
    attempted = completed;
    failed = 0;
    checks = [ ("latency samples", samples > 0) ];
    sim_layer =
      core_layer ~obss:[ obs ] ~adeliveries ~results
      @ [
          ("shard.cross_share", fratio res.Shard.plan_cross total);
          ("workload.backlog_share", 1.0 -. fratio completed offered_in_window);
        ];
    spans = 0;
  }

type variant = Main | Metrics_only

type workload = {
  name : string;
  run : Wspan.t -> probe:(unit -> float) -> seed:int -> variant -> iter;
}

let all =
  [
    { name = "paper"; run = (fun tr ~probe ~seed _ -> run_cells tr ~probe (paper_specs ~seed)) };
    { name = "shard-hot"; run = (fun tr ~probe ~seed _ -> run_shard tr ~probe ~seed) };
    {
      name = "traced-crash";
      run =
        (fun tr ~probe ~seed v ->
          run_cells tr ~probe (crash_specs ~seed ~tracing:(v = Main)));
    };
  ]
