open Repro_net

type rb_meta = { rb_origin : Pid.t; rb_seq : int }

type t =
  | Heartbeat
  | Diffuse of App_msg.t
  | Estimate of { inst : int; round : int; value : Batch.t; ts : int }
  | Propose of { inst : int; round : int; value : Batch.t }
  | Ack of { inst : int; round : int }
  | Nack of { inst : int; round : int }
  | Decision_tag of { meta : rb_meta; inst : int; round : int; value : Batch.t option }
  | New_round of { inst : int; round : int }
  | Prop_dec of {
      inst : int;
      round : int;
      proposal : Batch.t;
      decided : (int * int) option;
    }
  | Ack_diff of { inst : int; round : int; piggyback : App_msg.t list }
  | Mono_estimate of {
      inst : int;
      round : int;
      value : Batch.t;
      ts : int;
      piggyback : App_msg.t list;
    }
  | Mono_decision_tag of { inst : int; round : int }
  | To_coord of App_msg.t
  | Payload_request of { ids : App_msg.id list }
  | Payload_push of App_msg.t
  | Decision_request of { inst : int }
  | Decision_full of { inst : int; value : Batch.t }

(* Serialization model: a small per-constructor header (message type,
   instance, round, counts) plus the bytes of every application message
   carried. An application message costs its payload size plus a 12-byte
   identity (origin + sequence). These constants match the paper's
   assumption that fixed-size messages (acks, tags) are negligible next to
   payload-bearing ones. *)

let header = 12
let app_id_bytes = 12
let app_msg_bytes (m : App_msg.t) = app_id_bytes + m.size
let list_bytes l = List.fold_left (fun acc m -> acc + app_msg_bytes m) 0 l
let batch_bytes b = (app_id_bytes * Batch.size b) + Batch.payload_bytes b

let payload_bytes = function
  | Heartbeat -> 8
  | Diffuse m -> header + app_msg_bytes m
  | Estimate { value; _ } -> header + 8 + batch_bytes value
  | Propose { value; _ } -> header + batch_bytes value
  | Ack _ | Nack _ -> header
  | Decision_tag { value; _ } ->
    header + 8 + (match value with Some b -> batch_bytes b | None -> 0)
  | New_round _ -> header
  | Prop_dec { proposal; decided; _ } ->
    header + (match decided with Some _ -> 8 | None -> 0) + batch_bytes proposal
  | Ack_diff { piggyback; _ } -> header + list_bytes piggyback
  | Mono_estimate { value; piggyback; _ } ->
    header + 8 + batch_bytes value + list_bytes piggyback
  | Mono_decision_tag _ -> header
  | To_coord m -> header + app_msg_bytes m
  | Payload_request { ids } -> header + (app_id_bytes * List.length ids)
  | Payload_push m -> header + app_msg_bytes m
  | Decision_request _ -> header
  | Decision_full { value; _ } -> header + batch_bytes value

(* Layer attribution for the observability counters: which protocol layer
   pays for this message. The monolithic stack has no internal layering
   (that is its point), so all its messages bill to the abcast layer. *)
let layer : t -> Repro_obs.Obs.layer = function
  | Heartbeat -> `Net
  | Diffuse _ -> `Abcast
  | Estimate _ | Propose _ | Ack _ | Nack _ | New_round _ | Decision_request _
  | Decision_full _ ->
    `Consensus
  | Decision_tag _ -> `Rbcast
  | Prop_dec _ | Ack_diff _ | Mono_estimate _ | Mono_decision_tag _ | To_coord _
  | Payload_request _ | Payload_push _ ->
    `Abcast

(* Dense kind index, in constructor order: the per-copy accounting counts
   by slot in [kind_names] rather than by hashed name. *)
let kind_names =
  [|
    "heartbeat";
    "diffuse";
    "estimate";
    "propose";
    "ack";
    "nack";
    "decision-tag";
    "new-round";
    "prop-dec";
    "ack-diff";
    "mono-estimate";
    "mono-decision-tag";
    "to-coord";
    "payload-request";
    "payload-push";
    "decision-request";
    "decision-full";
  |]

let kind_index = function
  | Heartbeat -> 0
  | Diffuse _ -> 1
  | Estimate _ -> 2
  | Propose _ -> 3
  | Ack _ -> 4
  | Nack _ -> 5
  | Decision_tag _ -> 6
  | New_round _ -> 7
  | Prop_dec _ -> 8
  | Ack_diff _ -> 9
  | Mono_estimate _ -> 10
  | Mono_decision_tag _ -> 11
  | To_coord _ -> 12
  | Payload_request _ -> 13
  | Payload_push _ -> 14
  | Decision_request _ -> 15
  | Decision_full _ -> 16

let kind m = kind_names.(kind_index m)

let pp ppf = function
  | Heartbeat -> Fmt.string ppf "heartbeat"
  | Diffuse m -> Fmt.pf ppf "diffuse %a" App_msg.pp m
  | Estimate { inst; round; value; ts } ->
    Fmt.pf ppf "estimate i%d r%d ts%d %a" inst round ts Batch.pp value
  | Propose { inst; round; value } ->
    Fmt.pf ppf "propose i%d r%d %a" inst round Batch.pp value
  | Ack { inst; round } -> Fmt.pf ppf "ack i%d r%d" inst round
  | Nack { inst; round } -> Fmt.pf ppf "nack i%d r%d" inst round
  | Decision_tag { meta; inst; round; value } ->
    Fmt.pf ppf "decision-tag i%d r%d (rb %a/%d)%a" inst round Pid.pp meta.rb_origin
      meta.rb_seq
      (Fmt.option (fun ppf b -> Fmt.pf ppf " %a" Batch.pp b))
      value
  | New_round { inst; round } -> Fmt.pf ppf "new-round i%d r%d" inst round
  | Prop_dec { inst; round; proposal; decided } ->
    Fmt.pf ppf "prop-dec i%d r%d %a%a" inst round Batch.pp proposal
      (Fmt.option (fun ppf (d, r) -> Fmt.pf ppf " +decision(i%d r%d)" d r))
      decided
  | Ack_diff { inst; round; piggyback } ->
    Fmt.pf ppf "ack-diff i%d r%d [%a]" inst round
      (Fmt.list ~sep:(Fmt.any ", ") App_msg.pp)
      piggyback
  | Mono_estimate { inst; round; ts; value; piggyback } ->
    Fmt.pf ppf "mono-estimate i%d r%d ts%d %a [%a]" inst round ts Batch.pp value
      (Fmt.list ~sep:(Fmt.any ", ") App_msg.pp)
      piggyback
  | Mono_decision_tag { inst; round } -> Fmt.pf ppf "mono-decision-tag i%d r%d" inst round
  | To_coord m -> Fmt.pf ppf "to-coord %a" App_msg.pp m
  | Payload_request { ids } ->
    Fmt.pf ppf "payload-request [%a]" (Fmt.list ~sep:(Fmt.any ", ") App_msg.pp_id) ids
  | Payload_push m -> Fmt.pf ppf "payload-push %a" App_msg.pp m
  | Decision_request { inst } -> Fmt.pf ppf "decision-request i%d" inst
  | Decision_full { inst; value } -> Fmt.pf ppf "decision-full i%d %a" inst Batch.pp value
