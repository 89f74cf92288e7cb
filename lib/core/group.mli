open Repro_sim
open Repro_net

(** A whole simulated group: engine, network and n replicas.

    The top-level entry point of the library. Builds the cluster described
    by {!Params}, mounts the chosen stack on every process, and exposes the
    operations experiments and examples need: abcast, virtual-time
    execution, crash injection, delivery inspection, traffic statistics and
    the early-latency record of every message (§5.1's [L = min_i t_i - t0],
    computed from the first adelivery of each message anywhere). *)

type t

val create :
  kind:Replica.kind ->
  params:Params.t ->
  ?fd_mode:Replica.fd_mode ->
  ?record_deliveries:bool ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  t
(** [obs] (default: the no-op sink) receives every metric and span of
    the run: the network's per-layer traffic counters and tx/rx spans, and
    each mounted protocol module's counters, latency histograms and phase
    spans. The group binds the sink's clock to its engine, so all
    timestamps are virtual (Engine) time — never wall time. *)

val engine : t -> Engine.t
val network : t -> Wire_msg.t Network.t
val params : t -> Params.t
val replica : t -> Pid.t -> Replica.t

val abcast : t -> Pid.t -> size:int -> unit
(** Offer one message at a process (see {!Replica.abcast}). *)

val run_for : t -> Time.span -> unit
(** Advance the simulation by a span of virtual time. *)

val run_until_quiescent : t -> ?limit:Time.span -> unit -> bool
(** Run until no events remain (all protocol activity finished) or the
    optional virtual-time limit is hit; [true] on quiescence. Note that
    heartbeat failure detectors never go quiescent — use [limit]. *)

val crash : t -> Pid.t -> unit
(** Crash a process (§2.1: silent, permanent). *)

val deliveries : t -> Pid.t -> App_msg.id list
(** The in-order delivery log of one replica. *)

val delivered_counts : t -> int array
(** Per-process adelivered message counts. *)

val total_admitted : t -> int
(** Messages admitted (abcast completed) across all processes. *)

type latency_record = {
  id : App_msg.id;
  size : int;
  abcast_at : Time.t;  (** t0 *)
  first_delivery : Time.t;  (** min over processes of the adelivery time *)
}

val latencies : t -> latency_record list
(** One record per message adelivered anywhere, in first-delivery order. *)

val on_delivery : t -> (Pid.t -> App_msg.t -> unit) -> unit
(** Register an observer of every adelivery at every process. *)

val on_tamper : t -> (Pid.t -> detected:bool -> unit) -> unit
(** Register an observer of every adversary-tampered copy reaching a
    replica: the pid of the receiver and whether checksums detected (and
    discarded) the copy; receivers always verify, so [detected] is
    [true]. Only fires when a message adversary with a nonzero corrupt
    rate is armed. *)

val stats : t -> Net_stats.t
(** Live wire-traffic counters of the group's network. *)

val mean_batch_size : t -> float
(** Measured mean number of messages adelivered per consensus instance at
    process p1 — the paper's M (§5.1 fixes it to ≈ 4 by flow control). *)

(** {2 Snapshots} *)

val snapshot : t -> Repro_sim.Snapshot.section
(** The group's own section, ["core.group"]: the first-delivery ledger. *)

val restore : t -> Repro_sim.Snapshot.section -> unit
(** @raise Repro_sim.Snapshot.Codec_error on mismatch. *)

val sections : t -> Repro_sim.Snapshot.section list
(** One section per module for the whole world, in a fixed order: engine
    (clock, root RNG, event-queue residency), per-node CPUs, network,
    every replica's mounted modules, then the group ledger. This is the
    frame metadata [Repro_replay] persists and [repro bisect] diffs. *)

val restore_sections : t -> Repro_sim.Snapshot.section list -> unit
(** Re-seat the whole world's serializable state from {!sections}-shaped
    output (pending-event {e contents} ride the replay driver's world
    blob; see [lib/replay]).
    @raise Repro_sim.Snapshot.Codec_error on a missing section or any
    per-module mismatch. *)
