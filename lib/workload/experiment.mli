open Repro_core
module Stats = Repro_obs.Stats

(** One benchmark run: workload + measurement window.

    Reproduces the paper's methodology (§5.1): start the symmetric
    workload, let the system reach a stationary state (warm-up), then
    measure early latency and throughput over a window, reporting means
    with 95% confidence intervals. Also reports the measured per-consensus
    message and byte counts (the quantities of §5.2) and CPU utilization
    (the paper's saturation diagnostic). *)

type config = {
  kind : Replica.kind;
  n : int;
  offered_load : float;  (** msgs/s, global. *)
  size : int;  (** Message payload bytes. *)
  warmup_s : float;  (** Virtual seconds before measurement. *)
  measure_s : float;  (** Virtual seconds measured. *)
  seed : int;
  params : Params.t;  (** Base parameters; [n] and [seed] above override. *)
  fd_mode : Replica.fd_mode;
      (** Failure detection during the run. [`Good_run] (the default)
          reproduces §5.1's good-run benchmarks; fault studies mount a live
          detector (e.g. [`Heartbeat]) so crashes are actually detected. *)
  arrival : Generator.arrival;
      (** Arrival process offered by the workload generator. [Uniform]
          (the default, the paper's constant rate) consumes no randomness,
          so repeated good runs are seed-invariant; [Poisson] draws
          inter-arrival gaps from the seeded RNG, making the seed actually
          perturb the execution — what benchmark repeats want. *)
}

val config :
  kind:Replica.kind ->
  n:int ->
  offered_load:float ->
  size:int ->
  ?warmup_s:float ->
  ?measure_s:float ->
  ?seed:int ->
  ?params:Params.t ->
  ?fd_mode:Replica.fd_mode ->
  ?arrival:Generator.arrival ->
  unit ->
  config
(** Defaults: 2 s warm-up, 8 s measurement, seed 0, {!Params.default},
    [`Good_run] failure detection, [Uniform] arrivals. *)

type result = {
  config : config;
  early_latency_ms : Stats.summary;
      (** Early latency L = (min over processes of adelivery time) - t0, in
          milliseconds, over messages abcast inside the window. *)
  throughput : float;
      (** T = mean over processes of adeliver rate, msgs/s, §5.1. *)
  admitted_rate : float;  (** abcast completions per second. *)
  mean_batch : float;  (** Measured M: messages per consensus instance. *)
  msgs_per_instance : float;
      (** Wire messages per consensus instance (compare §5.2.1). *)
  bytes_per_instance : float;
      (** Wire payload bytes per consensus instance (compare §5.2.2). *)
  cpu_utilization : float;
      (** Mean busy fraction of the n CPUs during the window. *)
  max_nic_utilization : float;
      (** Busy fraction of the most-loaded NIC during the window (the
          coordinator's, in practice) — shows when a configuration becomes
          line-rate-bound. *)
  boundary_crossings_per_msg : float;
      (** Framework events per adelivered message (modularity diagnostic). *)
  events_executed : int;
      (** Simulator events executed over the whole run (warm-up included) —
          a deterministic function of the configuration, and the numerator
          of the bench harness's events-per-second metric. {!run_repeated}
          reports the sum over all repeats. *)
}

val run : ?obs:Repro_obs.Obs.t -> ?on_group:(Group.t -> unit) -> config -> result
(** Execute the run in virtual time and summarize the window. [obs]
    (default: no-op) observes the whole run — see {!Group.create} — and
    additionally receives window-normalized run gauges: [run.instances],
    [run.window_s], [run.mean_batch], [run.throughput],
    [run.msgs_per_instance]. Counters in [obs] are cumulative over the
    whole execution, warm-up included.

    [on_group] is called with the freshly built group before the workload
    starts — the hook fault studies use to install a nemesis schedule
    against the run (timestamps then count from the start of warm-up). *)

val run_raw :
  ?obs:Repro_obs.Obs.t ->
  ?on_group:(Group.t -> unit) ->
  config ->
  float list * result
(** {!run}, also returning the window's raw latency samples (what
    {!run_repeated} pools and the replay recorder reproduces). *)

val run_repeated :
  ?repeats:int ->
  ?jobs:int ->
  ?obs:Repro_obs.Obs.t ->
  ?on_group:(Group.t -> unit) ->
  config ->
  result
(** Run the same configuration [repeats] times (default 3) with seeds
    [seed, seed+1, …] and combine: latency samples are pooled across the
    executions (the paper computes means "over many messages and for
    several executions", §5.1); scalar metrics are averaged. With
    [repeats = 1] this is {!run}. A shared [obs] accumulates counters and
    histograms across all repeats; gauges keep the last run's values.

    [jobs] (default 1) runs the repeats on a {!Parmap} domain pool; the
    combined result and the final state of [obs] are byte-identical to the
    sequential schedule whatever the value of [jobs]. *)

val run_scripted :
  ?obs:Repro_obs.Obs.t ->
  kind:Replica.kind ->
  n:int ->
  ?params:Params.t ->
  ?fd_mode:Replica.fd_mode ->
  ?seed:int ->
  warmup_s:float ->
  measure_s:float ->
  arrivals:Population.arrival array ->
  loop:Population.loop_mode ->
  unit ->
  (Repro_sim.Time.t * Repro_sim.Time.t) option array * float list * result
(** One run driven by a precomputed {!Population} arrival script (via
    {!Script.attach}) instead of the symmetric generator. Returns the
    per-arrival [(abcast_at, first_delivery)] join of {!Script.resolve},
    the raw in-window latency samples (ms — what closed-loop sharded runs
    score by, since in-world re-offers never appear in the plan), and the
    usual window metrics; [result.config.offered_load] is the script's
    realised mean rate over the horizon (informational).
    The sharding layer ({!Repro_shard}) runs one of these per shard; a
    1-shard plan makes it a drop-in, event-identical replacement for the
    single-group path. *)

val kind_name : Replica.kind -> string
(** ["modular"], ["monolithic"] or ["indirect"] — the spelling used in
    metric tags and reports. *)

val ablation_row : width:int -> string -> result -> string
(** One row of ablation A1's table, without newline: the variant name
    padded with spaces to [width] characters, counted in UTF-8 code
    points (["§"] counts once), then [| lat … | tput … | msgs/inst …
    | bytes/inst …]. *)

val pp_result : result Fmt.t
(** One human-readable line: load, latency, throughput, M, CPU. *)

(** {2 Staged runs}

    A run decomposed into its group plus timed milestones, so a driver can
    slice the in-between stretches (the replay recorder slices them at
    snapshot-frame boundaries). Executing the milestones back to back with
    [Engine.run_until] is exactly {!run}: milestones fire outside the
    event loop at clock values the engine reaches anyway, so any slicing
    of the stretches is event-identical. *)

type staged = {
  st_group : Group.t;
  st_generator : Generator.t;
  st_milestones : (Repro_sim.Time.t * (unit -> unit)) list;
      (** Ascending absolute times; run the engine to each time, then call
          the action. *)
  st_result : unit -> float list * result;
      (** Callable once every milestone has executed: the window's raw
          latencies and the summarized result. *)
}

val stage : ?obs:Repro_obs.Obs.t -> ?on_group:(Group.t -> unit) -> config -> staged
