open Repro_sim
open Repro_net
open Repro_fd

(** Classical Chandra–Toueg consensus — the unoptimized baseline of §3.2.

    The original ◇S/majority algorithm as published [7], without the three
    optimizations the paper's modular stack applies:

    - {b estimate phase in every round}, including round 1: on [propose],
      every process sends its timestamped estimate to the round-1
      coordinator, which picks the maximum-timestamp value and proposes it;
    - {b unconditional round cycling}: after acking (or nacking) round r a
      process immediately enters round r+1 and sends its estimate to the
      next coordinator — it does not wait to suspect anyone. A process in
      phase 3 sends an explicit [Nack] when it suspects the coordinator,
      releasing the coordinator's wait for a majority of replies;
    - {b full-value decisions}: the decided batch itself (not a tag) is
      reliably broadcast.

    Same safety argument as {!Consensus} — ack-once per round, decisions
    from one majority-acked proposal, max-timestamp selection over a
    majority of estimates — and the same external interface, so the
    modular stack can mount either variant
    ({!Params.modular_opts.consensus_variant}). Comparing the two isolates
    what the §3.2 optimizations themselves are worth; see ablation A4. *)

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
(** Same contract as {!Consensus.create}, including the [obs] metric and
    trace names. [rbcast_decision] is always called with
    [value = Some batch] (full-value decisions). *)

val propose : t -> inst:int -> Batch.t -> unit
val receive : t -> src:Pid.t -> Msg.t -> unit

val rb_deliver :
  t -> proposer:Pid.t -> inst:int -> round:int -> value:Batch.t option -> unit

val decision : t -> inst:int -> Batch.t option

val live_instances : t -> int
(** Instances still in the table: created here and not yet decided.
    Decided ones live on in the decision log only. *)

val rounds_used : t -> inst:int -> int
(** Highest round entered. Note: ≥ 2 even in good runs, because the
    classical algorithm enters the next round as soon as it has acked. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["core.consensus_classic.p<me>"]; same layout as
    {!Consensus.snapshot}. *)
