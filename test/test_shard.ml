(* Tests for the sharding layer (ISSUE 10): router determinism, the
   population plan's shard-count invariance, 1-shard equivalence with the
   legacy single-group path, and jobs-equivalence of sharded runs and the
   scale study. *)

module Router = Repro_shard.Router
module Shard = Repro_shard.Shard
module Scale = Repro_shard.Scale
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl
module Rng = Repro_sim.Rng
module Time = Repro_sim.Time
open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats

let dump obs = String.concat "\n" (Jsonl.metric_lines ~tags:[] obs)
let dump_spans obs = String.concat "\n" (Jsonl.span_lines ~tags:[] obs)

(* ---- Router ---- *)

let test_router_basics () =
  Alcotest.(check int) "one shard takes everything" 0
    (Router.shard_of_key ~shards:1 12345);
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let key = Rng.int rng max_int in
    let s = Router.shard_of_key ~shards:5 key in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 5);
    Alcotest.(check int) "pure function: same key, same shard" s
      (Router.shard_of_key ~shards:5 key)
  done

let test_router_pow2_monotone () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 2000 do
    let key = Rng.int rng max_int in
    let m = 1 lsl Rng.int rng 6 in
    let s = Router.shard_of_key ~shards:m key in
    let s2 = Router.shard_of_key ~shards:(2 * m) key in
    Alcotest.(check bool)
      (Printf.sprintf "doubling %d -> %d splits, never shuffles" m (2 * m))
      true
      (s2 = s || s2 = s + m)
  done

let test_router_seed_stable () =
  (* Placement is a function of the key alone: plans built under different
     run seeds route every client identically. *)
  let profile = Population.profile ~clients:200 ~rate_per_client:3.0 () in
  let route ~key = Router.shard_of_key ~shards:4 key in
  let plan_seed seed =
    Population.plan ~seed profile ~route ~shards:4 ~horizon_s:0.5
  in
  let placement plan =
    Array.to_list plan.Population.scripts
    |> List.concat_map (fun script ->
           Array.to_list script
           |> List.map (fun a -> (a.Population.client, route ~key:a.Population.key)))
    |> List.sort_uniq compare
  in
  let p0 = placement (plan_seed 0) and p9 = placement (plan_seed 9) in
  List.iter
    (fun (client, shard) ->
      match List.assoc_opt client p9 with
      | None -> () (* client never drawn under seed 9 *)
      | Some shard9 ->
        Alcotest.(check int)
          (Printf.sprintf "client %d routes identically across seeds" client)
          shard shard9)
    p0

(* ---- Population plan ---- *)

let test_plan_shard_invariant () =
  (* The global arrival schedule is a pure function of (seed, profile,
     horizon): re-planning with a different shard count re-partitions the
     identical single-shard requests. *)
  let profile =
    Population.profile ~clients:500 ~rate_per_client:2.0 ~diurnal_amp:0.3
      ~diurnal_period_s:1.0
      ~flashes:[ { Population.flash_at_s = 0.2; flash_dur_s = 0.1; flash_mult = 2.0 } ]
      ()
  in
  let arrivals shards =
    let plan =
      Population.plan ~seed:3 profile
        ~route:(fun ~key -> Router.shard_of_key ~shards key)
        ~shards ~horizon_s:0.6
    in
    Array.to_list plan.Population.scripts
    |> List.concat_map Array.to_list
    |> List.map (fun a ->
           (a.Population.req, Time.to_ns a.Population.at, a.Population.client))
    |> List.sort compare
  in
  Alcotest.(check (list (triple int int int)))
    "1-shard and 8-shard plans carry the same schedule" (arrivals 1)
    (arrivals 8)

let test_plan_deterministic () =
  let profile =
    Population.profile ~clients:1_000_000 ~rate_per_client:0.001
      ~cross_fraction:0.2 ()
  in
  let route ~key = Router.shard_of_key ~shards:4 key in
  let p1 = Population.plan ~seed:5 profile ~route ~shards:4 ~horizon_s:1.0 in
  let p2 = Population.plan ~seed:5 profile ~route ~shards:4 ~horizon_s:1.0 in
  Alcotest.(check int) "same total" p1.Population.total p2.Population.total;
  Alcotest.(check int) "same cross" p1.Population.cross p2.Population.cross;
  Alcotest.(check bool) "some arrivals" true (p1.Population.total > 0);
  Alcotest.(check bool) "some cross requests" true (p1.Population.cross > 0);
  Array.iteri
    (fun s script ->
      let other = p2.Population.scripts.(s) in
      Alcotest.(check int) "script lengths" (Array.length script)
        (Array.length other))
    p1.Population.scripts

(* ---- 1-shard ≡ legacy single-group scripted run, per stack ---- *)

let small_profile =
  Population.profile ~clients:2_000 ~rate_per_client:0.25 ~size:512 ()

let test_one_shard_equivalence kind () =
  let config =
    Shard.config ~kind ~shards:1 ~n:3 ~profile:small_profile ~warmup_s:0.2
      ~measure_s:0.5 ~seed:2 ()
  in
  let plan = Shard.plan config in
  let obs_sharded = Obs.create ~max_events:0 () in
  let sharded = Shard.run ~obs:obs_sharded config in
  let obs_direct = Obs.create ~max_events:0 () in
  let _resolved, _window_lats, direct =
    Experiment.run_scripted ~obs:obs_direct ~kind ~n:3 ~seed:2 ~warmup_s:0.2
      ~measure_s:0.5
      ~arrivals:plan.Population.scripts.(0)
      ~loop:Population.Open ()
  in
  let per = sharded.Shard.per_shard.(0) in
  Alcotest.(check int) "events identical" direct.Experiment.events_executed
    per.Experiment.events_executed;
  Alcotest.(check (float 0.0)) "latency identical"
    direct.Experiment.early_latency_ms.Stats.mean
    per.Experiment.early_latency_ms.Stats.mean;
  Alcotest.(check (float 0.0)) "throughput identical"
    direct.Experiment.throughput per.Experiment.throughput;
  Alcotest.(check string) "metrics bytes identical" (dump obs_direct)
    (dump obs_sharded);
  Alcotest.(check bool) "window had traffic" true
    (per.Experiment.throughput > 0.0)

(* ---- Jobs-equivalence of sharded runs (the PR-5 contract) ---- *)

let test_shard_jobs_equivalence () =
  let profile =
    Population.profile ~clients:5_000 ~rate_per_client:0.24 ~cross_fraction:0.1
      ~diurnal_amp:0.25 ~diurnal_period_s:0.7 ()
  in
  let config =
    Shard.config ~kind:Replica.Modular ~shards:4 ~n:3 ~profile ~warmup_s:0.2
      ~measure_s:0.5 ~seed:0 ()
  in
  let run jobs =
    let obs = Obs.create () in
    let r = Shard.run ~jobs ~obs config in
    (r, dump obs, dump_spans obs)
  in
  let r1, m1, s1 = run 1 in
  let r4, m4, s4 = run 4 in
  Alcotest.(check int) "events identical" r1.Shard.events_executed
    r4.Shard.events_executed;
  Alcotest.(check (float 0.0)) "latency identical" r1.Shard.latency_ms.Stats.mean
    r4.Shard.latency_ms.Stats.mean;
  Alcotest.(check (float 0.0)) "cross latency identical"
    r1.Shard.cross_latency_ms.Stats.mean r4.Shard.cross_latency_ms.Stats.mean;
  Alcotest.(check (float 0.0)) "throughput identical" r1.Shard.throughput
    r4.Shard.throughput;
  Alcotest.(check string) "metrics bytes identical" m1 m4;
  Alcotest.(check string) "span bytes identical" s1 s4

let test_scale_jobs_equivalence () =
  let run jobs =
    let obs = Obs.create ~max_events:0 () in
    let rows =
      Scale.run ~kinds:[ Replica.Modular ] ~shard_counts:[ 1; 2 ]
        ~clients:[ 800 ] ~per_shard_load:250.0 ~warmup_s:0.15 ~measure_s:0.35
        ~jobs ~obs ()
    in
    (List.map (fun r -> Jsonl.to_string (Scale.row_json r)) rows, dump obs)
  in
  let rows1, m1 = run 1 in
  let rows2, m2 = run 2 in
  Alcotest.(check (list string)) "scale JSONL rows identical" rows1 rows2;
  Alcotest.(check string) "scale metrics identical" m1 m2

(* ---- Closed loop ---- *)

let test_closed_loop () =
  let profile =
    Population.profile ~clients:60 ~rate_per_client:0.0 ~size:256
      ~loop:(Population.Closed { think_s = 0.05 }) ()
  in
  let config =
    Shard.config ~kind:Replica.Modular ~shards:2 ~n:3 ~profile ~warmup_s:0.2
      ~measure_s:0.5 ~seed:6 ()
  in
  let r1 = Shard.run config in
  let r2 = Shard.run config in
  (* The loop actually closes: more requests complete than the population
     size, because delivered responses re-offer after the think time. *)
  Alcotest.(check bool) "requests completed in window" true
    (r1.Shard.latency_ms.Stats.count > 0);
  Alcotest.(check bool) "clients re-offer after think time" true
    (r1.Shard.throughput *. 0.5 > 0.0);
  Alcotest.(check int) "deterministic events" r1.Shard.events_executed
    r2.Shard.events_executed;
  Alcotest.(check (float 0.0)) "deterministic latency"
    r1.Shard.latency_ms.Stats.mean r2.Shard.latency_ms.Stats.mean

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "basics" `Quick test_router_basics;
          Alcotest.test_case "pow2-monotone" `Quick test_router_pow2_monotone;
          Alcotest.test_case "seed-stable" `Quick test_router_seed_stable;
        ] );
      ( "population",
        [
          Alcotest.test_case "shard-invariant" `Quick test_plan_shard_invariant;
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
        ] );
      ( "one-shard",
        [
          Alcotest.test_case "modular" `Quick
            (test_one_shard_equivalence Replica.Modular);
          Alcotest.test_case "indirect" `Quick
            (test_one_shard_equivalence Replica.Indirect);
          Alcotest.test_case "monolithic" `Quick
            (test_one_shard_equivalence Replica.Monolithic);
        ] );
      ( "jobs-equivalence",
        [
          Alcotest.test_case "sharded-run" `Quick test_shard_jobs_equivalence;
          Alcotest.test_case "scale-study" `Quick test_scale_jobs_equivalence;
        ] );
      ("closed-loop", [ Alcotest.test_case "think-time" `Quick test_closed_loop ]);
    ]
