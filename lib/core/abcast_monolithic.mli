open Repro_sim
open Repro_net
open Repro_fd

(** Monolithic atomic broadcast (§4).

    The same algorithms as the modular stack — Chandra–Toueg consensus over
    batches, decisions disseminated to all — merged into a single module,
    which legalizes the three cross-layer optimizations of the paper:

    - {b §4.1} the decision of instance k travels inside the proposal of
      instance k+1 ([Prop_dec]), exploiting that the good-run coordinator
      of consecutive instances is the same process;
    - {b §4.2} a non-coordinator's abcast messages are not diffused to
      everyone; they ride the next consensus ack ([Ack_diff]) to the
      coordinator only — and after a coordinator change they are
      re-piggybacked on the estimate to the new coordinator
      ([Mono_estimate]);
    - {b §4.3} a standalone decision (pipeline tail) is sent as n-1 plain
      tags with no relaying ([Mono_decision_tag]); the messages of the next
      instance act as its acknowledgment.

    In steady state an instance costs exactly 2·(n-1) messages (§5.2.1).

    Correctness outside good runs follows the same locking discipline as
    {!Consensus} (ack-once per round, majority quorums, max-timestamp
    estimate selection), with recovery rounds that disseminate full
    decision values. Each optimization can be disabled independently
    through {!Params.mono_opts} for the ablation benchmarks. *)

type t

val create :
  engine:Engine.t ->
  params:Params.t ->
  me:Pid.t ->
  fd:Fd.t ->
  send:(dst:Pid.t -> Msg.t -> unit) ->
  broadcast:(Msg.t -> unit) ->
  on_adeliver:(App_msg.t -> unit) ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  t
(** [obs] (default: no-op) counts [abcast.abcasts], [abcast.adelivers] and
    [abcast.decisions], records the abcast-to-adelivery latency in the
    [abcast.e2e_ms] histogram, and traces [abcast]/[decide]/[adeliver]
    phases — all in the [`Abcast] layer, since the monolithic stack has no
    internal consensus/rbcast boundary to attribute to. *)

val abcast : t -> App_msg.t -> unit
(** Broadcast a message admitted by flow control. At the coordinator it
    enters the proposal pool directly; elsewhere it waits for the next ack
    (active pipeline) or goes straight to the coordinator (idle system). *)

val receive : t -> src:Pid.t -> Msg.t -> unit
(** Feed a wire message (all [Mono_*], [Prop_dec], [Ack_diff], [To_coord],
    [New_round], [Decision_*], and — in the cheap-decision ablation —
    [Decision_tag]). Other constructors are ignored. *)

val delivered_count : t -> int
(** Total messages adelivered. *)

val decided_instances : t -> int
(** Instances adelivered so far (= next expected instance number). *)

val live_instances : t -> int
(** Instances still in the table: created here and not yet decided.
    Decided ones live on in the decision log only. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["core.abcast_monolithic.p<me>"]. The instance
    table summary and payload of {!Consensus.snapshot}, then the delivery
    cursor, the coordinator pool, [unannounced] (decisions taken here as
    proposer that no later proposal or tag has carried yet), and
    [decision.i<k>] fields rendering the decided batches of the most
    recent instances for bisect's state-diff report. *)
