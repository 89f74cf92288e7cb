open Repro_net

type t =
  | Plain of Msg.t
  | Frame of Msg.t Rchannel.wire
  | Tampered of t

let rec payload_bytes = function
  | Plain m -> Msg.payload_bytes m
  | Frame (Rchannel.Data { payload; _ }) -> 8 + Msg.payload_bytes payload
  | Frame (Rchannel.Ack _) -> 16
  | Tampered inner -> payload_bytes inner

let rec layer = function
  | Plain m -> Msg.layer m
  | Frame (Rchannel.Data { payload; _ }) -> Msg.layer payload
  | Frame (Rchannel.Ack _) -> `Net
  | Tampered inner -> layer inner

(* The message kinds first, so a plain or framed message keeps its own
   slot, then the channel's acks. *)
let kind_names = Array.append Msg.kind_names [| "channel-ack" |]
let channel_ack = Array.length Msg.kind_names

let kind_index = function
  | Plain m -> Msg.kind_index m
  | Frame (Rchannel.Data { payload; _ }) -> Msg.kind_index payload
  | Frame (Rchannel.Ack _) -> channel_ack
  | Tampered _ -> -1

(* Read off the table, so a copy's name and its slot cannot disagree. *)
let rec kind = function
  | Tampered inner -> "tampered-" ^ kind inner
  | w -> kind_names.(kind_index w)
