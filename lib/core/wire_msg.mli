open Repro_net

(** What actually travels on the simulated wire.

    Under the default {!Params.Tcp_like} transport, protocol messages go
    directly ([Plain]); under {!Params.Lossy}, they are framed by the
    per-process reliable channel ([Frame] wraps data frames carrying a
    sequence number, and the channel's cumulative acks). Kind labels and
    sizes pass through to the inner message so traffic statistics stay
    comparable across transports (channel acks are labelled
    ["channel-ack"]).

    [Tampered] is the message adversary's corruption envelope: a copy
    mutated in flight. It models a flipped payload whose framing is still
    parseable — the receiver's checksum detects the tamper and discards
    the copy. Size passes through unchanged (the flip does not change the
    length). *)

type t =
  | Plain of Msg.t
  | Frame of Msg.t Rchannel.wire
  | Tampered of t

val payload_bytes : t -> int
(** Inner message size, plus 8 bytes of sequencing for data frames;
    channel acks are 16 bytes. [Tampered] is transparent. *)

val kind : t -> string
(** The inner {!Msg.kind}, or ["channel-ack"]; tampered copies are
    prefixed ["tampered-"]. *)

val kind_names : string array
(** {!Msg.kind_names} followed by ["channel-ack"]. A constant table: never
    mutate it. *)

val kind_index : t -> int
(** The copy's slot in {!kind_names}, or [-1] for a tampered copy: its
    ["tampered-"] kind lies outside the table and is counted by name. *)

val layer : t -> Repro_obs.Obs.layer
(** The inner {!Msg.layer}; channel acks bill to the [`Net] layer. *)
