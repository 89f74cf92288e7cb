open Repro_sim
open Repro_net

(** Configuration of a replica group.

    Gathers everything the experiments vary or ablate: the wire/CPU cost
    model, the flow-control window, the framework dispatch cost, protocol
    timeouts, and the individual optimizations of both stacks (each can be
    switched off to measure its contribution — the A1/A2 ablations of
    DESIGN.md). Defaults reproduce the paper's configuration. *)

type rbcast_variant =
  | Classic  (** Every process relays on first receipt: n² messages (§3.1). *)
  | Majority
      (** Only ⌊(n-1)/2⌋ designated relayers re-send, assuming a majority of
          correct processes: (n-1)·⌊(n+1)/2⌋ messages (§3.1 optimization). *)

type consensus_variant =
  | Ct_optimized
      (** §3.2: no round-1 estimate phase, rounds advance only on
          suspicion, decisions disseminated as tags. *)
  | Ct_classic
      (** The original Chandra–Toueg algorithm: estimate phase in every
          round, unconditional round cycling with nacks, full-value
          decisions. The baseline the §3.2 optimizations improve on. *)

type modular_opts = {
  consensus_variant : consensus_variant;  (** Which consensus is mounted. *)
  rbcast_variant : rbcast_variant;  (** How decisions are reliably broadcast. *)
  decision_tag_only : bool;
      (** §3.2: send the [DECISION] tag instead of the decided value.
          Ignored by the [Classic] variant, which always sends values. *)
}

type mono_opts = {
  combine_proposal_decision : bool;
      (** §4.1: piggyback decision k on proposal k+1. *)
  piggyback_on_ack : bool;
      (** §4.2: send abcast messages only to the coordinator, on acks. *)
  cheap_decision : bool;
      (** §4.3: disseminate standalone decisions with n-1 plain sends
          instead of reliable broadcast. *)
}

type transport =
  | Tcp_like
      (** The simulated network's native quasi-reliable FIFO channels —
          what TCP gave the paper's stacks. The benchmark setting. *)
  | Lossy of float
      (** Fair-lossy links dropping each copy with the given probability;
          the replicas mount a {!Repro_net.Rchannel} per process to rebuild
          quasi-reliable FIFO channels (sequence numbers, cumulative acks,
          retransmission). Shows the §2.1 assumption being earned rather
          than assumed. *)

type t = {
  n : int;  (** Group size (3 or 7 in the paper). *)
  seed : int;  (** Root random seed for the whole run. *)
  wire : Wire.t;  (** Network and CPU cost model. *)
  topology : Topology.t option;
      (** Per-link latencies; [None] = uniform at [wire.propagation], the
          paper's switched LAN. *)
  window : int;
      (** Flow control: own abcast messages a process may have unordered at
          once. The default makes the measured mean batch size M ≈ 4, the
          value the paper fixes (§5.1). *)
  dispatch_cost : Time.span;
      (** Framework cost per inter-module event (modular stack crossings;
          the monolithic stack pays it only at the network boundary). *)
  round1_kick : Time.span;
      (** §3.3 timeout: a non-coordinator that proposed but saw no round-1
          proposal for this long sends its estimate to wake the
          coordinator. Never fires in good runs. *)
  batch_cap : int;  (** Upper bound on messages per consensus proposal. *)
  transport : transport;  (** How replicas reach each other. *)
  checksums : bool;
      (** Verify payload integrity on receipt (on by default, as TCP's
          checksums were for the paper's stacks): a {!Wire_msg.Tampered}
          copy injected by the message adversary is detected and
          discarded — under [Lossy] transport the {!Repro_net.Rchannel}
          retransmission then recovers it, so corruption degrades to
          loss. With checksums off, tampered copies are processed as if
          genuine (silent corruption; the {!Repro_fault} monitor's
          integrity/agreement invariants are the only net). *)
  modular : modular_opts;
  mono : mono_opts;
}

val default : n:int -> t
(** The paper's configuration for a group of [n] processes, seed 0. *)

val coordinator : t -> round:int -> Pid.t
(** The rotating coordinator: process [(round - 1) mod n]. Round 1 always
    maps to p1, the property §4.1 exploits. *)

val majority : t -> int
(** ⌈(n+1)/2⌉ processes — the quorum used by consensus and by the
    optimized reliable broadcast. *)
