(** Modular atomic broadcast (§3.3): reduction to consensus.

    The ABcast microprotocol of the modular stack. It diffuses every abcast
    message to all processes over plain quasi-reliable channels (the §3.3
    optimization of the original rbcast-based dissemination), accumulates
    received messages in a pending set, and runs a sequence of consensus
    instances — each proposed with the current pending batch — to agree on
    delivery order. Decided batches are adelivered in instance order, and
    within a batch in the deterministic message-identity order.

    Modularity boundary: consensus is reachable only through the
    [propose]/[on_decide] pair ({!consensus_service}); this module cannot
    see coordinators, rounds, or consensus messages — so it cannot
    piggyback diffusions on acks or merge decisions into proposals, which
    is precisely the §4 head start the monolithic stack enjoys. *)

type consensus_service = { propose : inst:int -> Batch.t -> unit }
(** The black-box view of the consensus module. Decisions flow back through
    {!on_decide}, wired by the stack composition. *)

type t

val create :
  params:Params.t ->
  me:Repro_net.Pid.t ->
  diffuse:(App_msg.t -> unit) ->
  consensus:consensus_service ->
  on_adeliver:(App_msg.t -> unit) ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  t
(** [diffuse] must send the message to every other process (the stack wires
    it to the network). [on_adeliver] observes the total order.

    [obs] (default: no-op) counts [abcast.abcasts] and [abcast.adelivers],
    records the abcast-to-adelivery latency at this process in the
    [abcast.e2e_ms] histogram, and traces [abcast]/[adeliver] phases in the
    [`Abcast] layer. *)

val abcast : t -> App_msg.t -> unit
(** Broadcast a message admitted by flow control: diffuse it and make sure
    a consensus instance will order it. *)

val on_diffuse : t -> App_msg.t -> unit
(** Receive another process's diffused message. *)

val on_decide : t -> inst:int -> Batch.t -> unit
(** Receive a consensus decision. Out-of-order decisions are buffered and
    adelivered in instance order. *)

val next_instance : t -> int
(** The next instance this process will decide (= number of instances
    adelivered so far). *)

val delivered_count : t -> int
(** Total messages adelivered. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["core.abcast_modular.p<me>"]. Carries the
    pending pool, delivered-identity set, decision cursor and buffered
    out-of-order decisions. *)

val restore : ?name:string -> t -> Repro_sim.Snapshot.section -> unit
(** @raise Repro_sim.Snapshot.Codec_error on mismatch. *)
