open Repro_core
open Repro_workload
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl

type row = {
  row_kind : Replica.kind;
  row_shards : int;
  row_clients : int;
  row_rate : float;
  row_result : Shard.result;
}

let all_kinds = [ Replica.Modular; Replica.Indirect; Replica.Monolithic ]
let default_shards = [ 1; 4; 16 ]
let default_clients = [ 10_000; 100_000; 1_000_000 ]

(* One cell's population: the per-shard offered load is held constant as
   the shard count grows (total load scales with shards, rate per client
   shrinks with population size), so the curve isolates the modularity
   cost at a fixed per-group operating point while the client population
   and fleet scale around it. The burstiness knobs are deliberately
   non-trivial: a Zipf tail over clients, a diurnal swing over the run and
   one mid-window flash crowd. *)
let cell_profile ~per_shard_load ~cross_fraction ~shards ~clients ~warmup_s
    ~measure_s =
  let rate_per_client =
    per_shard_load *. float_of_int shards /. float_of_int clients
  in
  let horizon_s = warmup_s +. measure_s in
  Population.profile ~clients ~rate_per_client ~tail_alpha:1.1
    ~diurnal_amp:0.25 ~diurnal_period_s:horizon_s
    ~flashes:
      [
        {
          Population.flash_at_s = warmup_s +. (measure_s /. 2.0);
          flash_dur_s = measure_s /. 5.0;
          flash_mult = 1.5;
        };
      ]
    ~cross_fraction ()

let run ?(kinds = all_kinds) ?(shard_counts = default_shards)
    ?(clients = default_clients) ?(per_shard_load = 600.0)
    ?(cross_fraction = 0.05) ?(n = 3) ?(warmup_s = 0.5) ?(measure_s = 2.0)
    ?(seed = 0) ?jobs ?(obs = Obs.noop) ?on_row () =
  if shard_counts = [] || clients = [] || kinds = [] then
    invalid_arg "Scale.run: empty axis";
  let rows = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun shards ->
          List.iter
            (fun nclients ->
              let profile =
                cell_profile ~per_shard_load ~cross_fraction ~shards
                  ~clients:nclients ~warmup_s ~measure_s
              in
              let config =
                Shard.config ~kind ~shards ~n ~profile ~warmup_s ~measure_s
                  ~seed ()
              in
              let result = Shard.run ?jobs ~obs config in
              let row =
                {
                  row_kind = kind;
                  row_shards = shards;
                  row_clients = nclients;
                  row_rate = profile.Population.rate_per_client;
                  row_result = result;
                }
              in
              if Obs.enabled obs then begin
                let tag metric =
                  Fmt.str "scale.%s.s%d.c%d.%s" (Experiment.kind_name kind)
                    shards nclients metric
                in
                Obs.set_gauge obs (tag "latency_ms")
                  result.Shard.latency_ms.Stats.mean;
                Obs.set_gauge obs (tag "throughput") result.Shard.throughput
              end;
              Option.iter (fun f -> f row) on_row;
              rows := row :: !rows)
            clients)
        shard_counts)
    kinds;
  List.rev !rows

(* The JSONL row deliberately carries only virtual-time quantities — no
   wallclock, no jobs — so the artifact is byte-identical at any [--jobs],
   the same discipline the bench report's stripped meta keys follow. *)
let row_json r =
  let res = r.row_result in
  Jsonl.Obj
    [
      ("type", Jsonl.String "scale");
      ("stack", Jsonl.String (Experiment.kind_name r.row_kind));
      ("shards", Jsonl.Int r.row_shards);
      ("clients", Jsonl.Int r.row_clients);
      ("rate_per_client", Jsonl.Float r.row_rate);
      ("requests", Jsonl.Int res.Shard.plan_total);
      ("cross_requests", Jsonl.Int res.Shard.plan_cross);
      ("latency_ms", Jsonl.Float res.Shard.latency_ms.Stats.mean);
      ("latency_p95_ms", Jsonl.Float res.Shard.latency_ms.Stats.p95);
      ("cross_latency_ms", Jsonl.Float res.Shard.cross_latency_ms.Stats.mean);
      ("throughput", Jsonl.Float res.Shard.throughput);
      ("events_executed", Jsonl.Int res.Shard.events_executed);
    ]

let pp_row ppf r =
  Fmt.pf ppf "s=%-3d c=%-8d %a" r.row_shards r.row_clients Shard.pp_result
    r.row_result
