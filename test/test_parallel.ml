(* Tests for the parallel harness (PR 5): the domain pool's ordering and
   failure contracts, the Obs merge layer it leans on, and end-to-end
   jobs-equivalence — a parallel schedule must be byte-identical to the
   sequential one for results, callback order, metrics JSONL and the
   campaign verdict stream. *)

module Pool = Repro_parallel.Pool
module Parmap = Repro_workload.Parmap
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl
open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats

(* ---- Pool ---- *)

let test_default_jobs () =
  Alcotest.(check bool) "at least one worker" true (Pool.default_jobs () >= 1)

let test_map_ordering () =
  List.iter
    (fun jobs ->
      let collected = ref [] in
      let results =
        Pool.map ~jobs
          ~collect:(fun i y -> collected := (i, y) :: !collected)
          (fun x -> x * x)
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
      in
      Alcotest.(check (list int))
        (Printf.sprintf "results in input order (jobs=%d)" jobs)
        [ 0; 1; 4; 9; 16; 25; 36; 49; 64; 81 ]
        results;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "collect streams in task order (jobs=%d)" jobs)
        (List.init 10 (fun i -> (i, i * i)))
        (List.rev !collected))
    [ 1; 2; 4 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 (fun x -> x + 1) [ 6 ])

exception Boom of int

let test_map_exception () =
  List.iter
    (fun jobs ->
      let collected = ref [] in
      let raised =
        try
          ignore
            (Pool.map ~jobs
               ~collect:(fun i _ -> collected := i :: !collected)
               (fun x -> if x = 5 then raise (Boom x) else x)
               [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
          None
        with Boom x -> Some x
      in
      Alcotest.(check (option int))
        (Printf.sprintf "original exception propagates (jobs=%d)" jobs)
        (Some 5) raised;
      (* Exactly the prefix before the failing task is collected: the
         sequential contract, independent of how the domains interleaved. *)
      Alcotest.(check (list int))
        (Printf.sprintf "collect saw exactly the prefix (jobs=%d)" jobs)
        [ 0; 1; 2; 3; 4 ]
        (List.rev !collected))
    [ 1; 2; 4 ]

(* ---- Obs.absorb: merged per-task sinks = one shared sequential sink ---- *)

let record_task obs k =
  (* A mix of every stream, keyed by the task index so merge order is
     visible in the output. *)
  Obs.incr obs ~by:(k + 1) "task.count";
  Obs.incr obs (Printf.sprintf "task.%d.only" k);
  Obs.set_gauge obs "task.last" (float_of_int k);
  Obs.observe obs "task.lat" (float_of_int (10 * k));
  let root =
    Obs.span obs ~parent:(Obs.span_ctx obs) ~pid:k ~layer:`App ~phase:"root"
      ~detail:(string_of_int k)
  in
  ignore (Obs.span obs ~parent:root ~pid:k ~layer:`App ~phase:"child" ~detail:"")

let dump obs = String.concat "\n" (Jsonl.metric_lines ~tags:[] obs)

let dump_trace obs = String.concat "\n" (Jsonl.span_lines ~tags:[] obs)

let test_absorb_equals_sequential () =
  let tasks = [ 0; 1; 2; 3 ] in
  let shared = Obs.create () in
  List.iter (record_task shared) tasks;
  let merged = Obs.create () in
  let sinks = List.map (fun k -> let s = Obs.create () in record_task s k; s) tasks in
  List.iter (fun s -> Obs.absorb merged s) sinks;
  Alcotest.(check string) "metric JSONL identical" (dump shared) (dump merged);
  Alcotest.(check string) "span JSONL identical (ids renumbered)"
    (dump_trace shared) (dump_trace merged)

let test_absorb_noop_sinks () =
  let dst = Obs.create () in
  Obs.absorb dst Obs.noop;
  Obs.absorb Obs.noop dst;
  Alcotest.(check pass) "absorbing noop in either direction is a no-op" () ();
  Alcotest.(check bool) "create_like noop is noop" false
    (Obs.enabled (Obs.create_like Obs.noop));
  Alcotest.(check bool) "create_like enabled is enabled" true
    (Obs.enabled (Obs.create_like dst))

(* ---- Parmap: shared-sink semantics across jobs ---- *)

let test_parmap_equivalence () =
  let work ~obs k =
    record_task obs k;
    k * 3
  in
  let run jobs =
    let obs = Obs.create () in
    let order = ref [] in
    let results =
      Parmap.map ~jobs ~obs
        ~collect:(fun i y -> order := (i, y) :: !order)
        work [ 0; 1; 2; 3; 4 ]
    in
    (results, List.rev !order, dump obs, dump_trace obs)
  in
  let r1, o1, m1, t1 = run 1 in
  let r4, o4, m4, t4 = run 4 in
  Alcotest.(check (list int)) "results equal" r1 r4;
  Alcotest.(check (list (pair int int))) "collect order equal" o1 o4;
  Alcotest.(check string) "metrics equal" m1 m4;
  Alcotest.(check string) "spans equal" t1 t4

(* ---- Experiment.run_repeated across jobs ---- *)

let repeated_config =
  Experiment.config ~kind:Replica.Modular ~n:3 ~offered_load:800.0 ~size:512
    ~warmup_s:0.2 ~measure_s:0.5 ~arrival:Generator.Poisson ()

let test_run_repeated_jobs_equivalence () =
  let run jobs =
    let obs = Obs.create ~max_events:0 () in
    let r = Experiment.run_repeated ~repeats:3 ~jobs ~obs repeated_config in
    (r, dump obs)
  in
  let r1, m1 = run 1 in
  let r4, m4 = run 4 in
  Alcotest.(check (float 0.0)) "pooled latency mean identical"
    r1.Experiment.early_latency_ms.Stats.mean r4.Experiment.early_latency_ms.Stats.mean;
  Alcotest.(check (float 0.0)) "throughput identical" r1.Experiment.throughput
    r4.Experiment.throughput;
  Alcotest.(check string) "accumulated metrics identical" m1 m4

let test_poisson_seeds_vary () =
  (* The BENCH iqr=0 fix: under Poisson arrivals consecutive seeds must
     actually perturb the execution (uniform arrivals consume no
     randomness on the good path and are seed-invariant). *)
  let lat seed =
    (Experiment.run { repeated_config with Experiment.seed = seed })
      .Experiment.early_latency_ms.Stats.mean
  in
  Alcotest.(check bool) "seed 0 and 1 differ" true (lat 0 <> lat 1)

(* ---- Campaign across jobs ---- *)

let test_campaign_jobs_equivalence () =
  let run jobs =
    let lines = ref [] in
    let verdicts =
      Repro_fault.Campaign.run ~kinds:[ Replica.Modular; Replica.Monolithic ]
        ~horizon_s:0.5
        ~on_verdict:(fun v -> lines := Repro_fault.Campaign.verdict_line v :: !lines)
        ~jobs ~n:3 ~seeds:3 ()
    in
    (List.map Repro_fault.Campaign.verdict_line verdicts, List.rev !lines)
  in
  let v1, l1 = run 1 in
  let v4, l4 = run 4 in
  Alcotest.(check (list string)) "verdict lines identical" v1 v4;
  Alcotest.(check (list string)) "on_verdict stream identical" l1 l4;
  Alcotest.(check (list string)) "callback order is the verdict order" v1 l1

let test_adversary_campaign_jobs_equivalence () =
  (* Same contract with the message adversary in the mix: the adversary
     draws from a group-private stream, so parallel cells stay
     byte-identical to the sequential schedule. *)
  let run jobs =
    let verdicts =
      Repro_fault.Campaign.run ~kinds:[ Replica.Modular; Replica.Indirect ]
        ~horizon_s:0.5 ~adversary:true ~jobs ~n:3 ~seeds:2 ()
    in
    List.map Repro_fault.Campaign.verdict_line verdicts
  in
  Alcotest.(check (list string)) "verdict lines identical" (run 1) (run 4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "default-jobs" `Quick test_default_jobs;
          Alcotest.test_case "ordering" `Quick test_map_ordering;
          Alcotest.test_case "empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "exception" `Quick test_map_exception;
        ] );
      ( "absorb",
        [
          Alcotest.test_case "sequential-equivalence" `Quick
            test_absorb_equals_sequential;
          Alcotest.test_case "noop" `Quick test_absorb_noop_sinks;
        ] );
      ( "parmap",
        [ Alcotest.test_case "jobs-equivalence" `Quick test_parmap_equivalence ] );
      ( "experiment",
        [
          Alcotest.test_case "run-repeated" `Quick test_run_repeated_jobs_equivalence;
          Alcotest.test_case "poisson-seeds-vary" `Quick test_poisson_seeds_vary;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs-equivalence" `Quick test_campaign_jobs_equivalence;
          Alcotest.test_case "adversary jobs-equivalence" `Slow
            test_adversary_campaign_jobs_equivalence;
        ] );
    ]
