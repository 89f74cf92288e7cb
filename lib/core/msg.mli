open Repro_net

(** Wire messages of both atomic broadcast stacks.

    One closed variant covers the modular stack (§3), the monolithic stack
    (§4) and the failure detector, so a whole replica exchanges a single
    message type over the simulated network. Each stack uses its own
    constructors; nothing is shared between them except [Heartbeat] and the
    decision-recovery pair.

    {!payload_bytes} is the serialization model: it charges each message
    its protocol header plus the payload bytes it carries, making measured
    traffic directly comparable with the byte counts of §5.2.2. *)

type rb_meta = { rb_origin : Pid.t; rb_seq : int }
(** Reliable-broadcast envelope: originator and per-originator sequence
    number, used for duplicate suppression by relays. *)

type t =
  | Heartbeat  (** Failure-detector beacon. *)
  (* ------ Modular stack (§3) ------ *)
  | Diffuse of App_msg.t
      (** §3.3 optimized dissemination: an abcast message sent to all over
          plain quasi-reliable channels. *)
  | Estimate of { inst : int; round : int; value : Batch.t; ts : int }
      (** Chandra–Toueg estimate, carrying the lock timestamp. Sent in
          rounds > 1, and in round 1 only as the §3.3 timeout kick. *)
  | Propose of { inst : int; round : int; value : Batch.t }
      (** Coordinator's proposal for a round. *)
  | Ack of { inst : int; round : int }  (** Accepts the round's proposal. *)
  | Nack of { inst : int; round : int }
      (** Refuses a round after suspecting its coordinator. Only the
          classical (non-optimized) consensus variant sends nacks; the
          optimized variant's coordinators are released by round
          advancement instead (§3.2). *)
  | Decision_tag of { meta : rb_meta; inst : int; round : int; value : Batch.t option }
      (** §3.2 optimized decision: the tag [DECISION] instead of the value,
          reliably broadcast. Receivers decide the proposal they stored for
          [(inst, round)] as proposed by [meta.rb_origin] — the tag is only
          valid against that exact proposal, which is why the envelope
          origin doubles as the proposer identity. [value] is [Some] only
          in the [decision_tag_only = false] ablation. *)
  | New_round of { inst : int; round : int }
      (** Round solicitation: a coordinator that received an estimate for a
          round it cannot yet complete asks everyone to join that round.
          Restores liveness when a false suspicion strands one process in a
          higher round; never sent in good runs. Used by both stacks. *)
  (* ------ Monolithic stack (§4) ------ *)
  | Prop_dec of {
      inst : int;
      round : int;
      proposal : Batch.t;
      decided : (int * int) option;
    }
      (** §4.1: proposal for [inst] combined with the decision notification
          for a previous instance, as a [(instance, round)] tag — the
          receiver decides the proposal it stored for that instance and
          round as proposed by the sender. *)
  | Ack_diff of { inst : int; round : int; piggyback : App_msg.t list }
      (** §4.2: ack carrying the sender's fresh abcast messages, which thus
          travel only to the coordinator. *)
  | Mono_estimate of {
      inst : int;
      round : int;
      value : Batch.t;
      ts : int;
      piggyback : App_msg.t list;
    }
      (** Estimate after a coordinator change, re-piggybacking every own
          message not yet adelivered (§4.2). *)
  | Mono_decision_tag of { inst : int; round : int }
      (** §4.3: standalone decision as a bare tag, sent point-to-point to
          all (n-1 messages, no relaying) when the pipeline has no next
          proposal to combine with. In the [cheap_decision = false]
          ablation the stack uses {!Decision_tag} (reliable broadcast)
          instead. *)
  | To_coord of App_msg.t
      (** An abcast message sent directly (and only) to the coordinator
          when no ack is pending to piggyback it on. *)
  (* ------ Indirect stack (related work [12], Ekwall & Schiper 2006) ------ *)
  | Payload_request of { ids : App_msg.id list }
      (** A process holds a decision naming identifiers whose payloads it
          has not received (the diffuser crashed mid-send): ask everyone. *)
  | Payload_push of App_msg.t
      (** Answer to a {!Payload_request}: the payload itself. *)
  (* ------ Shared recovery path (both stacks, non-good runs only) ------ *)
  | Decision_request of { inst : int }
      (** Sent by a process holding a decision tag without the matching
          proposal (possible only if the coordinator crashed, cf. §3.2). *)
  | Decision_full of { inst : int; value : Batch.t }
      (** Full decided value, answering a {!Decision_request} or closing a
          recovery round. *)

val payload_bytes : t -> int
(** Serialized size of the message in bytes (protocol headers + payload). *)

val kind : t -> string
(** Constructor name, for traces and per-kind accounting: lower case,
    words joined by dashes (["decision-tag"]). *)

val kind_index : t -> int
(** The message's slot in {!kind_names}: one per constructor, in
    declaration order. *)

val kind_names : string array
(** [kind_names.(kind_index m) = kind m]. A constant table: never mutate
    it. *)

val layer : t -> Repro_obs.Obs.layer
(** The protocol layer the message belongs to, for the per-layer traffic
    counters: [Diffuse] is abcast dissemination; [Estimate], [Propose],
    [Ack], [Nack], [New_round] and the decision-recovery pair are
    consensus; [Decision_tag] is reliable broadcast; every monolithic and
    indirect-stack constructor bills to [`Abcast] (the monolithic stack has
    no internal layering — that is its point); [Heartbeat] is [`Net]. *)

val pp : t Fmt.t
(** One-line rendering with instance/round and batch summaries. *)
