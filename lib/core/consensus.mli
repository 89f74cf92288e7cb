open Repro_sim
open Repro_net
open Repro_fd

(** Optimized Chandra–Toueg consensus (§3.2).

    A multi-instance consensus engine as mounted in the modular stack. The
    algorithm is the ◇S/majority rotating-coordinator protocol of Chandra
    and Toueg with the optimizations of §3.2 (following Urbán [25]):

    - round 1 has no estimate phase — its coordinator proposes its own
      initial value directly;
    - a new round starts only when the current round's coordinator is
      suspected (or a progress timeout fires), not unconditionally;
    - decisions are disseminated as a [DECISION] tag through the reliable
      broadcast service; receivers decide the proposal they stored for the
      tag's exact (instance, round, proposer) coordinates, falling back to
      an explicit request if the coordinator crashed before their proposal
      arrived.

    Safety is the standard locking argument: a process acks at most once
    per round, a value decided in round r was acked by a majority, and any
    later round's proposal is chosen as the maximum-timestamp estimate over
    a majority — which intersects the ack quorum, so the locked value is
    preserved. Two liveness aids never exercised in good runs: a round-1
    estimate "kick" after the §3.3 timeout, and a {!Msg.New_round}
    solicitation that re-synchronizes processes stranded in a higher round
    by a false suspicion.

    Modularity boundary: the module sends its point-to-point messages
    through [send], hands decisions to an opaque reliable broadcast service
    through [rbcast_decision], and reports decisions through [on_decide].
    It knows nothing of atomic broadcast, and atomic broadcast learns
    nothing of rounds or coordinators — the black-box constraint whose cost
    the paper measures. *)

type t

val create :
  engine:Engine.t ->
  params:Params.t ->
  me:Pid.t ->
  fd:Fd.t ->
  send:(dst:Pid.t -> Msg.t -> unit) ->
  broadcast:(Msg.t -> unit) ->
  rbcast_decision:(inst:int -> round:int -> value:Batch.t option -> unit) ->
  on_decide:(inst:int -> Batch.t -> unit) ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  t
(** [rbcast_decision] must eventually feed back into {!rb_deliver} on every
    correct process (including this one — the local rbcast delivery is how
    the deciding coordinator itself decides).

    [obs] (default: no-op) counts [consensus.proposals], [consensus.acks],
    [consensus.estimates] and [consensus.decisions], records the
    first-activity-to-decision latency in the [consensus.decide_ms]
    histogram, and traces [propose]/[decide] phases in the [`Consensus]
    layer. *)

val propose : t -> inst:int -> Batch.t -> unit
(** Start (or join) instance [inst] with an initial value. Idempotent per
    instance; ignored once the instance has decided. *)

val receive : t -> src:Pid.t -> Msg.t -> unit
(** Feed a consensus wire message ([Estimate], [Propose], [Ack],
    [New_round], [Decision_request], [Decision_full]). Other constructors
    are ignored. *)

val rb_deliver :
  t -> proposer:Pid.t -> inst:int -> round:int -> value:Batch.t option -> unit
(** Deliver a decision notification from the reliable broadcast service.
    [value = None] is the optimized tag; the receiver decides its stored
    proposal for [(inst, round, proposer)] or falls back to recovery. *)

val decision : t -> inst:int -> Batch.t option
(** The decided value of an instance, if this process has decided. *)

val live_instances : t -> int
(** Instances still in the table: created here and not yet decided.
    Decided ones live on in the decision log only. *)

val rounds_used : t -> inst:int -> int
(** Highest round this process entered for the instance (1 in good runs);
    0 if the instance is unknown. For tests and diagnostics. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["core.consensus.p<me>"]. Fields summarize the
    instance table (counts, highest decided, catch-up low-water mark,
    highest active round); the bulk payload carries every instance's full
    round state with timer handles stripped. *)
