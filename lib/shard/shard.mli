open Repro_core
open Repro_workload

(** Sharded multi-group simulation: [M] independent consensus groups
    behind the deterministic {!Router}, driven by one {!Population} plan
    partitioned per shard.

    Each shard is a complete, independent event world (own engine,
    network, group — seeded [seed + shard index]), which is exactly the
    shape the PR-5 domain pool parallelizes: {!run} fans the shards over
    {!Repro_workload.Parmap} and absorbs per-shard sinks in shard order,
    so metrics/trace/report bytes are identical at any [jobs].

    Cross-shard requests (plan [remote >= 0]) are offered in both partner
    shards at the same virtual instant; {!run} joins the two legs by
    request id and scores the request with the client-visible latency
    [max(first_delivery) - min(abcast_at)] over its legs, counting it once
    in throughput. This scatter-score models the read/update pattern of a
    router that issues both legs in parallel and waits for the slower
    one; it deliberately involves no inter-shard protocol — shards never
    exchange messages, which is what keeps them independent worlds. *)

type config = {
  kind : Replica.kind;
  shards : int;
  n : int;  (** Processes per shard group. *)
  profile : Population.profile;
  warmup_s : float;
  measure_s : float;
  seed : int;
  params : Params.t option;  (** Base params; [n]/[seed] set per shard. *)
}

val config :
  kind:Replica.kind ->
  shards:int ->
  n:int ->
  profile:Population.profile ->
  ?warmup_s:float ->
  ?measure_s:float ->
  ?seed:int ->
  ?params:Params.t ->
  unit ->
  config
(** Validated constructor; defaults mirror {!Experiment.config}
    (warmup 2 s, measure 8 s, seed 0). *)

type result = {
  config : config;
  plan_total : int;  (** Requests in the plan (cross counted once). *)
  plan_cross : int;
  per_shard : Experiment.result array;
  latency_ms : Stats.summary;
      (** Single-shard requests abcast within the window. *)
  cross_latency_ms : Stats.summary;
      (** Cross-shard requests, both legs delivered, issued within the
          window. *)
  throughput : float;  (** Completed requests/s (cross counted once). *)
  events_executed : int;  (** Sum over shard engines (deterministic). *)
}

val run : ?jobs:int -> ?obs:Repro_obs.Obs.t -> config -> result
(** Plan the population, run every shard, join cross-shard legs. With
    [shards = 1] the shard world is event-for-event identical to
    {!Experiment.run_scripted} on the same plan — the equivalence the
    router tests pin per stack. *)

val plan : config -> Population.plan
(** The plan {!run} would execute (exposed for tests, the CLI's
    plan-size reporting, and callers that time {!run_planned}
    separately from plan construction). *)

val run_planned :
  ?jobs:int -> ?obs:Repro_obs.Obs.t -> config -> Population.plan -> result
(** {!run} on a pre-built plan. [run config = run_planned config (plan
    config)]; the split lets a caller time the event-loop phase apart
    from plan construction (the repository benchmark times the two
    separately). *)

val pp_result : result Fmt.t
