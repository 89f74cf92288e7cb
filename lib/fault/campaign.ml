open Repro_sim
open Repro_net
open Repro_core
open Repro_workload
module Jsonl = Repro_obs.Jsonl

type outcome = Pass | Fail of Monitor.violation

type verdict = {
  kind : Replica.kind;
  n : int;
  seed : int;
  schedule : Schedule.t;
  outcome : outcome;
  crashed : int;
  delivered : int;
  admitted : int;
  mean_latency_ms : float;
}

let span_of_s s = Time.span_ns (int_of_float (s *. 1e9))

(* ---- Schedule generation ---- *)

let random_schedule ?(adversary = false) ?(equivocation = false) rng ~n ~horizon =
  let h = Time.span_to_ns horizon in
  if h <= 0 then invalid_arg "Campaign.random_schedule: empty horizon";
  if n < 3 then invalid_arg "Campaign.random_schedule: need n >= 3";
  let steps = ref [] in
  let push at action = steps := { Schedule.at = Time.span_ns at; action } :: !steps in
  (* Crashes: a random minority, half of them mid-broadcast. *)
  let f = (n - 1) / 2 in
  let victims = Array.of_list (Pid.all ~n) in
  Rng.shuffle_in_place rng victims;
  let n_crashes = Rng.int rng (f + 1) in
  for i = 0 to n_crashes - 1 do
    let at = (h / 10) + Rng.int rng (max 1 (h * 6 / 10)) in
    let p = victims.(i) in
    if Rng.bool rng then push at (Schedule.Crash p)
    else push at (Schedule.Crash_after_sends (p, Rng.int rng ((2 * n) + 1)))
  done;
  (* Link-fault windows. Starts and durations are bounded so every window
     closes by 0.9 h, where the unconditional cleanup below runs. *)
  let n_windows = Rng.int rng 3 in
  for _ = 1 to n_windows do
    let start = (h / 10) + Rng.int rng (max 1 (h / 2)) in
    let stop = start + (h / 20) + Rng.int rng (max 1 (h / 4)) in
    match Rng.int rng 4 with
    | 0 ->
      let src = Rng.int rng n in
      let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
      push start (Schedule.Cut (src, dst));
      push stop (Schedule.Heal (src, dst))
    | 1 ->
      let pids = Array.of_list (Pid.all ~n) in
      Rng.shuffle_in_place rng pids;
      let k = 1 + Rng.int rng (n - 1) in
      let block lo hi = Array.to_list (Array.sub pids lo (hi - lo)) in
      push start (Schedule.Partition [ block 0 k; block k n ]);
      push stop Schedule.Heal_all
    | 2 ->
      push start (Schedule.Loss_rate (0.01 +. Rng.float rng 0.25));
      push stop (Schedule.Loss_rate 0.0)
    | _ ->
      push start (Schedule.Delay_spike (Time.span_us (100 + Rng.int rng 1900)));
      push stop (Schedule.Delay_spike Time.span_zero)
  done;
  (* Message-adversary windows, opt-in so that crash/partition campaigns
     keep their historical draw sequence (and verdicts) bit-for-bit.
     Equivocation is a further opt-in: no signature-free stack can mask
     conflicting payloads, so default adversary campaigns stick to the
     powers the stacks are expected to absorb. *)
  let n_adv = if adversary then Rng.int rng 3 else 0 in
  for _ = 1 to n_adv do
    let start = (h / 10) + Rng.int rng (max 1 (h / 2)) in
    let stop = start + (h / 20) + Rng.int rng (max 1 (h / 4)) in
    match Rng.int rng (if equivocation then 5 else 4) with
    | 0 ->
      push start (Schedule.Adv_drop_budget (1 + Rng.int rng (n - 2)));
      push stop (Schedule.Adv_drop_budget 0)
    | 1 ->
      push start (Schedule.Corrupt_rate (0.005 +. Rng.float rng 0.05));
      push stop (Schedule.Corrupt_rate 0.0)
    | 2 ->
      push start (Schedule.Duplicate_rate (0.01 +. Rng.float rng 0.1));
      push stop (Schedule.Duplicate_rate 0.0)
    | 3 ->
      push start (Schedule.Reorder_window (Time.span_us (100 + Rng.int rng 1900)));
      push stop (Schedule.Reorder_window Time.span_zero)
    | _ ->
      push start (Schedule.Equivocate_rate (0.005 +. Rng.float rng 0.05));
      push stop (Schedule.Equivocate_rate 0.0)
  done;
  let body =
    List.stable_sort
      (fun (a : Schedule.step) (b : Schedule.step) ->
        compare (Time.span_to_ns a.at) (Time.span_to_ns b.at))
      (List.rev !steps)
  in
  if n_windows = 0 && n_adv = 0 then body
  else begin
    (* Cleanup: whatever the windows left behind, nothing stays cut, lossy
       or slow past 0.9 h — liveness is only required of healed runs. *)
    let cleanup_at = Time.span_ns (h * 9 / 10) in
    let link_cleanup =
      if n_windows = 0 then []
      else
        [
          { Schedule.at = cleanup_at; action = Schedule.Heal_all };
          { Schedule.at = cleanup_at; action = Schedule.Loss_rate 0.0 };
          { Schedule.at = cleanup_at; action = Schedule.Delay_spike Time.span_zero };
        ]
    in
    let adv_cleanup =
      if n_adv = 0 then []
      else
        [
          { Schedule.at = cleanup_at; action = Schedule.Adv_drop_budget 0 };
          { Schedule.at = cleanup_at; action = Schedule.Corrupt_rate 0.0 };
          { Schedule.at = cleanup_at; action = Schedule.Duplicate_rate 0.0 };
          { Schedule.at = cleanup_at; action = Schedule.Reorder_window Time.span_zero };
          { Schedule.at = cleanup_at; action = Schedule.Equivocate_rate 0.0 };
        ]
    in
    body @ link_cleanup @ adv_cleanup
  end

(* ---- Single run ---- *)

(* A trial staged as a group+monitor plus timed milestones, the same
   decomposition as [Experiment.stage]: [run_one] executes the milestones
   back to back, the replay recorder slices the stretches in between at
   frame boundaries — event-identical either way. *)
type staged = {
  ca_group : Group.t;
  ca_monitor : Monitor.t;
  ca_generator : Generator.t;
  ca_milestones : (Time.t * (unit -> unit)) list; (* ascending, absolute *)
  ca_result : unit -> verdict;
}

let stage ~kind ~n ~seed ~schedule ?(offered_load = 600.0) ?(settle_s = 5.0)
    ?(obs = Repro_obs.Obs.noop) () =
  (match Schedule.validate ~n schedule with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Campaign.run_one: " ^ e));
  (* Message-dropping plans run over the Lossy transport (baseline 0) so
     Rchannel earns the quasi-reliability assumption back by retransmission;
     crash-only and delay-only plans keep the native Tcp_like channels. *)
  let transport =
    if Schedule.drops_messages schedule then Params.Lossy 0.0 else Params.Tcp_like
  in
  let params = { (Params.default ~n) with Params.seed; transport } in
  let group =
    Group.create ~kind ~params
      ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config)
      ~record_deliveries:false ~obs ()
  in
  let monitor = Monitor.create ~seed ~schedule ~n () in
  Monitor.attach monitor group;
  ignore (Nemesis.install_exn ~obs group schedule);
  let generator = Generator.start group ~offered_load ~size:1024 () in
  let load_end =
    Time.add Time.zero (Time.span_add (Schedule.duration schedule) (Time.span_ms 200))
  in
  let settle_end = Time.add load_end (span_of_s settle_s) in
  let crashed = Schedule.crashed_pids schedule in
  let correct = List.filter (fun p -> not (List.mem p crashed)) (Pid.all ~n) in
  let milestones =
    [
      (load_end, fun () -> Generator.stop generator);
      (settle_end, fun () -> Monitor.check_final monitor ~correct ());
    ]
  in
  let result () =
    let outcome =
      match Monitor.first_violation monitor with None -> Pass | Some v -> Fail v
    in
    let delivered =
      match correct with [] -> 0 | p :: _ -> Monitor.delivered_count monitor p
    in
    let mean_latency_ms =
      match Group.latencies group with
      | [] -> nan
      | ls ->
        List.fold_left
          (fun acc (r : Group.latency_record) ->
            acc +. Time.span_to_ms_float (Time.diff r.first_delivery r.abcast_at))
          0.0 ls
        /. float_of_int (List.length ls)
    in
    {
      kind;
      n;
      seed;
      schedule;
      outcome;
      crashed = List.length crashed;
      delivered;
      admitted = Group.total_admitted group;
      mean_latency_ms;
    }
  in
  {
    ca_group = group;
    ca_monitor = monitor;
    ca_generator = generator;
    ca_milestones = milestones;
    ca_result = result;
  }

let run_one ~kind ~n ~seed ~schedule ?offered_load ?settle_s () =
  let st = stage ~kind ~n ~seed ~schedule ?offered_load ?settle_s () in
  let engine = Group.engine st.ca_group in
  List.iter
    (fun (at, act) ->
      Engine.run_until engine at;
      act ())
    st.ca_milestones;
  st.ca_result ()

(* ---- Shrinking ---- *)

let shrink ~fails schedule =
  if not (fails schedule) then schedule
  else begin
    let rec go s =
      let len = List.length s in
      let rec try_idx i =
        if i >= len then s
        else begin
          let candidate = List.filteri (fun j _ -> j <> i) s in
          if fails candidate then go candidate else try_idx (i + 1)
        end
      in
      try_idx 0
    in
    go schedule
  end

(* Time coarsening: snap every timestamp to the coarsest grid on which the
   failure still reproduces, so minimal reproducers read "at 1s", not
   "at 937561ns". Snapping is to the nearest multiple, with a running max
   keeping timestamps non-decreasing (so the plan stays valid). Runs after
   subsequence shrinking — the result is no longer a subsequence of the
   original plan, but it is a plan the same invariant still fails on. *)
let coarsen ~fails schedule =
  match schedule with
  | [] -> schedule
  | _ ->
    let snap grid =
      let prev = ref 0 in
      List.map
        (fun (s : Schedule.step) ->
          let ns = Time.span_to_ns s.Schedule.at in
          let snapped = (ns + (grid / 2)) / grid * grid in
          let snapped = max snapped !prev in
          prev := snapped;
          { s with Schedule.at = Time.span_ns snapped })
        schedule
    in
    let rec try_grids = function
      | [] -> schedule
      | grid :: finer ->
        let candidate = snap grid in
        if Schedule.equal candidate schedule then schedule
        else if fails candidate then candidate
        else try_grids finer
    in
    try_grids [ 1_000_000_000; 100_000_000; 10_000_000; 1_000_000 ]

let minimize ?offered_load ?settle_s v =
  match v.outcome with
  | Pass -> v.schedule
  | Fail viol ->
    let fails s =
      match
        (run_one ~kind:v.kind ~n:v.n ~seed:v.seed ~schedule:s ?offered_load
           ?settle_s ())
          .outcome
      with
      | Fail viol' -> viol'.Monitor.invariant = viol.Monitor.invariant
      | Pass -> false
    in
    coarsen ~fails (shrink ~fails v.schedule)

(* ---- Campaign ---- *)

let all_kinds = [ Replica.Modular; Replica.Monolithic; Replica.Indirect ]

let run ?(kinds = all_kinds) ?(base_seed = 1) ?offered_load ?(horizon_s = 2.0)
    ?settle_s ?(on_verdict = fun _ -> ()) ?jobs ?adversary ?equivocation ~n
    ~seeds () =
  let horizon = span_of_s horizon_s in
  (* Schedule generation stays sequential (it is cheap and shares one RNG
     per seed); the independent (seed, schedule, kind) runs go on the
     pool. The schedule depends on the seed only, so every stack faces
     the same fault pattern. Tasks are enumerated seed-major, and
     [Pool.map]'s ordered collection keeps the verdict stream — and
     [on_verdict] calls — in seed-then-stack order whatever [jobs] is. *)
  let tasks =
    List.concat_map
      (fun i ->
        let seed = base_seed + i in
        let schedule =
          random_schedule ?adversary ?equivocation (Rng.create ~seed) ~n ~horizon
        in
        List.map (fun kind -> (seed, schedule, kind)) kinds)
      (List.init seeds (fun i -> i))
  in
  Repro_parallel.Pool.map ?jobs
    ~collect:(fun _ v -> on_verdict v)
    (fun (seed, schedule, kind) ->
      run_one ~kind ~n ~seed ~schedule ?offered_load ?settle_s ())
    tasks

let failures verdicts =
  List.filter (fun v -> match v.outcome with Pass -> false | Fail _ -> true) verdicts

(* ---- Reporting ---- *)

let verdict_json v =
  let float_or_null x = if Float.is_nan x then Jsonl.Null else Jsonl.Float x in
  let base =
    [
      ("type", Jsonl.String "verdict");
      ("stack", Jsonl.String (Experiment.kind_name v.kind));
      ("n", Jsonl.Int v.n);
      ("seed", Jsonl.Int v.seed);
      ( "result",
        Jsonl.String (match v.outcome with Pass -> "pass" | Fail _ -> "fail") );
      ("crashed", Jsonl.Int v.crashed);
      ("delivered", Jsonl.Int v.delivered);
      ("admitted", Jsonl.Int v.admitted);
      ("mean_latency_ms", float_or_null v.mean_latency_ms);
      ("schedule", Jsonl.String (Schedule.to_string v.schedule));
    ]
  in
  let failure =
    match v.outcome with
    | Pass -> []
    | Fail viol ->
      [
        ("invariant", Jsonl.String (Monitor.invariant_name viol.Monitor.invariant));
        ("process", Jsonl.Int (viol.Monitor.at_process + 1));
        ("at_ms", Jsonl.Float (Time.to_ms_float viol.Monitor.at));
        ("detail", Jsonl.String viol.Monitor.detail);
      ]
  in
  Jsonl.Obj (base @ failure)

let verdict_line v = Jsonl.to_string (verdict_json v)

let pp_verdict ppf v =
  match v.outcome with
  | Pass ->
    Fmt.pf ppf "seed %-3d %-10s pass  (%d crashed, %d delivered, %.2f ms mean)"
      v.seed (Experiment.kind_name v.kind) v.crashed v.delivered v.mean_latency_ms
  | Fail viol ->
    Fmt.pf ppf "seed %-3d %-10s FAIL  %a" v.seed (Experiment.kind_name v.kind)
      Monitor.pp_violation viol
