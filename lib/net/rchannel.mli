open Repro_sim

(** Reliable FIFO channels over fair-lossy links — a simplified TCP.

    The system model of the paper (§2.1) assumes quasi-reliable channels:
    if correct [p] sends m to correct [q], then [q] eventually receives m.
    The paper's testbed gets this from TCP; the simulated {!Network}
    provides it natively. This module closes the loop: it {e implements}
    quasi-reliable FIFO channels on top of links that drop messages (the
    network's {!Network.set_loss_rate} mode), with the standard mechanism —
    per-link sequence numbers, cumulative acknowledgments, out-of-order
    buffering, and timeout-driven retransmission.

    Properties provided towards each peer, as long as both endpoints are
    correct and the link is fair-lossy (every retransmission has an
    independent chance of arriving):

    - every payload sent is eventually delivered (quasi-reliability),
    - exactly once (duplicates suppressed),
    - in send order (FIFO).

    Transport-agnostic: wrap the payloads in {!wire} frames, hand them to
    any unreliable [send_raw], and feed incoming frames to {!receive_raw}.

    {2 Determinism obligations}

    - Retransmission instants derive only from the virtual clock, the rto
      constant and RTT samples of simulated round trips — all functions of
      the simulated history, so a given loss pattern replays identically.
    - The send window is a ring buffer of pooled frame cells mutated in
      place; pooling changes allocation behaviour, never observable
      behaviour: frames are retransmitted oldest-first and acked in seq
      order exactly as a list representation would.
    - [deliver] runs synchronously inside {!receive_raw} in per-link FIFO
      order; no timer interleaving can reorder deliveries. *)

type 'msg wire =
  | Data of { seq : int; payload : 'msg }
      (** [seq] is the per-directed-link sequence number, from 0. *)
  | Ack of { cumulative : int }
      (** All [Data] frames with [seq <= cumulative] have been received. *)

type 'msg t

val create :
  Engine.t ->
  me:Pid.t ->
  n:int ->
  send_raw:(dst:Pid.t -> 'msg wire -> unit) ->
  deliver:(src:Pid.t -> 'msg -> unit) ->
  ?rto:Time.span ->
  ?burst:int ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  'msg t
(** [rto] is the {e floor} of the retransmission timeout (default 20 ms).
    The effective timeout per link is [max rto (2 * srtt)] where [srtt] is
    a smoothed round-trip estimate sampled per Karn's rule (only frames
    acked on their first transmission, EWMA gain 1/8); while no ack makes
    progress it additionally doubles per expiry, up to 16×, and the
    doubling resets on progress. Tracking the measured RTT matters because
    it includes the receiver's CPU queueing delay: retransmitting into a
    backlogged receiver on a fixed short timer floods it with duplicates
    faster than it can process them, and the duplicates themselves then
    keep its queue long (metastable receive-side collapse). [burst]
    (default 32) bounds how many of the oldest unacknowledged frames one
    expiry re-sends — re-sending an {e entire} partition backlog every rto
    injects frames faster than the NIC drains them and
    congestion-collapses the healed network. [deliver] is invoked exactly
    once per payload, in per-link FIFO order. [obs] (default: no-op)
    counts [rchannel.retransmissions] and [rchannel.duplicates] and traces
    each retransmission (layer [`Net], phase [retransmit]). *)

val send : 'msg t -> dst:Pid.t -> 'msg -> unit
(** Queue a payload for reliable delivery to [dst]. A self-send is
    delivered immediately without framing. *)

val receive_raw : 'msg t -> src:Pid.t -> 'msg wire -> unit
(** Feed one frame received from the unreliable network. *)

val retransmissions : 'msg t -> int
(** Total [Data] frames re-sent so far (the cost of the loss). *)

val unacked : 'msg t -> dst:Pid.t -> int
(** Frames awaiting acknowledgment towards one peer. *)

val srtt : 'msg t -> dst:Pid.t -> Time.span option
(** Smoothed round-trip estimate towards one peer; [None] before the
    first sample. *)

val halt : 'msg t -> unit
(** Stop all retransmission timers (when the owner crashes). *)

val snapshot : 'msg t -> Repro_sim.Snapshot.section
(** The ["net.rchannel.p<me>"] section: retransmission count, halt flag,
    per-link sequence state in the fields; the unacked send windows,
    smoothed RTTs, backoffs and out-of-order receive buffers in the bulk
    payload. *)
