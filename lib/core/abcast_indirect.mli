open Repro_sim
open Repro_net

(** Atomic broadcast by {e indirect} consensus — the related-work middle
    ground the paper discusses (§6, citing Ekwall & Schiper, DSN 2006).

    The modular stack's byte overhead comes from every payload travelling
    twice: once in the diffusion, once inside the consensus proposal
    (§5.2.2). Indirect consensus widens the consensus interface just
    enough to fix that while keeping the module boundary: consensus still
    knows nothing of atomic broadcast, but it now agrees on {e message
    identifiers} instead of full payloads. Payloads travel exactly once
    (the diffusion); proposals, estimates and recovery values shrink to a
    few bytes per message.

    The price is a new coupling at delivery time: a decision may name an
    identifier whose payload has not arrived yet (diffusion in flight) or
    never will arrive on its own (the diffuser crashed mid-send, possible
    under the §3.3 plain-channel optimization). Delivery blocks on the
    missing payloads, and after a grace period the process asks everyone
    ([Payload_request] / [Payload_push]) — some process has it, because
    the decided identifiers come from a proposer that did.

    This module reuses the unchanged {!Consensus} engine: identifier
    batches are encoded as zero-size message batches, so the wire-size
    model prices a proposal at exactly the identifier bytes. *)

type consensus_service = { propose : inst:int -> Batch.t -> unit }

type t

val create :
  engine:Engine.t ->
  params:Params.t ->
  me:Pid.t ->
  diffuse:(App_msg.t -> unit) ->
  send:(dst:Pid.t -> Msg.t -> unit) ->
  broadcast:(Msg.t -> unit) ->
  consensus:consensus_service ->
  on_adeliver:(App_msg.t -> unit) ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  t
(** [diffuse] sends the payload to every other process; [broadcast]/[send]
    carry the payload-recovery messages. The consensus decisions must be
    fed back through {!on_decide}. [obs] follows the same metric and trace
    names as {!Abcast_modular.create}. *)

val abcast : t -> App_msg.t -> unit
val on_diffuse : t -> App_msg.t -> unit

val on_payload_request : t -> src:Pid.t -> App_msg.id list -> unit
(** Answer with {!Msg.Payload_push} for every requested payload held. *)

val on_payload_push : t -> App_msg.t -> unit

val on_decide : t -> inst:int -> Batch.t -> unit
(** Feed an identifier-batch decision; delivery happens in instance order
    once all named payloads are present. *)

val next_instance : t -> int
val delivered_count : t -> int

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["core.abcast_indirect.p<me>"]. Carries the
    identity store (per origin: the held/decided/delivered state bits, the
    held payloads and the low-water mark), the pending count, decision
    cursor and buffered decisions; the fetch timer rides the world blob. *)
