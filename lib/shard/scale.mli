open Repro_core

(** The modularity-cost-vs-scale study: per-stack latency/throughput as
    shards × client population grows, holding the per-shard offered load
    constant. Answers ROADMAP item 2's question — does the paper's ~50%
    latency / 10–30% throughput modularity gap grow, shrink or invert at
    scale? Rows carry only virtual-time quantities, so the emitted JSONL
    is byte-identical at any [--jobs] (the CI artifact relies on this). *)

type row = {
  row_kind : Replica.kind;
  row_shards : int;
  row_clients : int;
  row_rate : float;  (** Derived per-client req/s for this cell. *)
  row_result : Shard.result;
}

val all_kinds : Replica.kind list
val default_shards : int list
(** [1; 4; 16]. *)

val default_clients : int list
(** [10_000; 100_000; 1_000_000]. *)

val run :
  ?kinds:Replica.kind list ->
  ?shard_counts:int list ->
  ?clients:int list ->
  ?per_shard_load:float ->
  ?cross_fraction:float ->
  ?n:int ->
  ?warmup_s:float ->
  ?measure_s:float ->
  ?seed:int ->
  ?jobs:int ->
  ?obs:Repro_obs.Obs.t ->
  ?on_row:(row -> unit) ->
  unit ->
  row list
(** The full grid, kinds × shard counts × client populations, in that
    (deterministic) order; [on_row] fires after each cell. Cells run
    sequentially; each cell's shards fan out over the domain pool with
    [jobs]. Per cell, [rate_per_client = per_shard_load * shards /
    clients] (default per-shard load 600 req/s, 5% cross-shard traffic,
    Zipf 1.1 tail, 25% diurnal swing, one 1.5× mid-window flash crowd). *)

val row_json : row -> Repro_obs.Jsonl.json
(** One JSONL record per cell (virtual-time fields only). *)

val pp_row : row Fmt.t
