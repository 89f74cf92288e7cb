(* Tests for the workload library: statistics, the constant-rate generator
   and the experiment runner. *)

open Repro_sim
open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats

(* ---- Stats ---- *)

let test_summary_basics () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.p50;
  Alcotest.(check (float 1e-6)) "stddev (sample)" (sqrt 2.5) s.Stats.stddev;
  Alcotest.(check (float 1e-6)) "ci95" (1.96 *. sqrt 2.5 /. sqrt 5.0) s.Stats.ci95

let test_summary_empty_and_singleton () =
  let e = Stats.summarize [] in
  Alcotest.(check int) "empty count" 0 e.Stats.count;
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 e.Stats.mean;
  let s = Stats.summarize [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "singleton mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0 s.Stats.stddev

let test_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 40.0 (Stats.percentile a 1.0);
  Alcotest.(check (float 1e-9)) "p50 interpolated" 25.0 (Stats.percentile a 0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in q" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun samples ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let p q = Stats.percentile a q in
      p 0.1 <= p 0.5 && p 0.5 <= p 0.9)

(* ---- Generator ---- *)

let test_generator_rate () =
  let params = Params.default ~n:3 in
  let g = Group.create ~kind:Replica.Monolithic ~params ~record_deliveries:false () in
  let gen = Generator.start g ~offered_load:900.0 ~size:64 () in
  Group.run_for g (Time.span_s 2);
  Generator.stop gen;
  let offered = Generator.offered gen in
  (* 900/s for 2 s = 1800 offers, +- startup staggering. *)
  Alcotest.(check bool)
    (Printf.sprintf "offered close to 1800 (got %d)" offered)
    true
    (offered >= 1780 && offered <= 1820)

let test_generator_poisson_rate () =
  let params = Params.default ~n:3 in
  let g = Group.create ~kind:Replica.Monolithic ~params ~record_deliveries:false () in
  let gen = Generator.start g ~offered_load:900.0 ~size:64 ~arrival:Generator.Poisson () in
  Group.run_for g (Time.span_s 4);
  Generator.stop gen;
  let offered = Generator.offered gen in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean rate near 3600 (got %d)" offered)
    true
    (offered > 3200 && offered < 4000)

let test_generator_stop () =
  let params = Params.default ~n:3 in
  let g = Group.create ~kind:Replica.Monolithic ~params ~record_deliveries:false () in
  let gen = Generator.start g ~offered_load:1000.0 ~size:64 () in
  Group.run_for g (Time.span_ms 500);
  Generator.stop gen;
  let frozen = Generator.offered gen in
  Group.run_for g (Time.span_s 1);
  Alcotest.(check int) "no offers after stop" frozen (Generator.offered gen)

(* ---- Experiment ---- *)

let test_experiment_low_load_tracks_offered () =
  let c =
    Experiment.config ~kind:Replica.Monolithic ~n:3 ~offered_load:200.0 ~size:1024
      ~warmup_s:0.5 ~measure_s:2.0 ()
  in
  let r = Experiment.run c in
  Alcotest.(check bool)
    (Printf.sprintf "throughput tracks offered load (got %.1f)" r.Experiment.throughput)
    true
    (abs_float (r.Experiment.throughput -. 200.0) < 10.0);
  Alcotest.(check bool) "latency positive" true
    (r.Experiment.early_latency_ms.Stats.mean > 0.0);
  Alcotest.(check bool) "cpu fraction sane" true
    (r.Experiment.cpu_utilization > 0.0 && r.Experiment.cpu_utilization < 1.0)

let test_experiment_saturation_plateau () =
  (* Above saturation, increasing offered load must not increase
     throughput (the flow-control plateau of Fig. 10). *)
  let run load =
    Experiment.run
      (Experiment.config ~kind:Replica.Modular ~n:3 ~offered_load:load ~size:16384
         ~warmup_s:0.5 ~measure_s:2.0 ())
  in
  let t1 = (run 3000.0).Experiment.throughput in
  let t2 = (run 6000.0).Experiment.throughput in
  Alcotest.(check bool)
    (Printf.sprintf "plateau: %.0f vs %.0f" t1 t2)
    true
    (abs_float (t2 -. t1) /. t1 < 0.10)

let test_experiment_monolithic_beats_modular () =
  (* The paper's headline at saturation. *)
  let run kind =
    Experiment.run
      (Experiment.config ~kind ~n:3 ~offered_load:3000.0 ~size:16384 ~warmup_s:0.5
         ~measure_s:2.0 ())
  in
  let m = run Replica.Modular and mono = run Replica.Monolithic in
  Alcotest.(check bool) "monolithic lower latency" true
    (mono.Experiment.early_latency_ms.Stats.mean
    < m.Experiment.early_latency_ms.Stats.mean);
  Alcotest.(check bool) "monolithic higher throughput" true
    (mono.Experiment.throughput > m.Experiment.throughput);
  Alcotest.(check bool) "monolithic fewer msgs/instance" true
    (mono.Experiment.msgs_per_instance < m.Experiment.msgs_per_instance)

let test_experiment_deterministic () =
  let c =
    Experiment.config ~kind:Replica.Modular ~n:3 ~offered_load:800.0 ~size:4096
      ~warmup_s:0.5 ~measure_s:1.0 ~seed:42 ()
  in
  let a = Experiment.run c and b = Experiment.run c in
  Alcotest.(check (float 1e-12)) "same latency mean" a.Experiment.early_latency_ms.Stats.mean
    b.Experiment.early_latency_ms.Stats.mean;
  Alcotest.(check (float 1e-12)) "same throughput" a.Experiment.throughput
    b.Experiment.throughput

let () =
  Alcotest.run "workload"
    [
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_basics;
          Alcotest.test_case "empty/singleton" `Quick test_summary_empty_and_singleton;
          Alcotest.test_case "percentile" `Quick test_percentile;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
      ( "generator",
        [
          Alcotest.test_case "uniform rate" `Quick test_generator_rate;
          Alcotest.test_case "poisson rate" `Quick test_generator_poisson_rate;
          Alcotest.test_case "stop" `Quick test_generator_stop;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "low load tracks offered" `Quick
            test_experiment_low_load_tracks_offered;
          Alcotest.test_case "saturation plateau" `Slow test_experiment_saturation_plateau;
          Alcotest.test_case "monolithic beats modular" `Slow
            test_experiment_monolithic_beats_modular;
          Alcotest.test_case "deterministic given a seed" `Quick
            test_experiment_deterministic;
        ] );
    ]
