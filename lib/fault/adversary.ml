open Repro_sim
open Repro_net
open Repro_core

(* ---- Payload mutators ----
   The network is generic in its message type, so the Wire_msg-specific
   knowledge of what a "corrupted" or "equivocated" copy looks like lives
   here, on the fault side of the boundary. *)

(* Corruption: flip one small field — the identity bit of an application
   message, the instance/round/timestamp of a protocol message — modelling
   a bit flip that leaves the framing parseable. Receiver checksums
   discard these mutants; one processed as genuine is exactly what the
   monitor's integrity/agreement invariants exist to catch. *)

let flip_app (m : App_msg.t) =
  { m with App_msg.id = { m.App_msg.id with App_msg.seq = m.App_msg.id.App_msg.seq lxor 1 } }

let flip_id (id : App_msg.id) = { id with App_msg.seq = id.App_msg.seq lxor 1 }

let corrupt_msg (msg : Msg.t) : Msg.t option =
  match msg with
  | Msg.Heartbeat -> None
  | Msg.Diffuse m -> Some (Msg.Diffuse (flip_app m))
  | Msg.Estimate { inst; round; value; ts } ->
    Some (Msg.Estimate { inst; round; value; ts = ts lxor 1 })
  | Msg.Propose { inst; round; value } ->
    Some (Msg.Propose { inst = inst lxor 1; round; value })
  | Msg.Ack { inst; round } -> Some (Msg.Ack { inst; round = round + 1 })
  | Msg.Nack { inst; round } -> Some (Msg.Nack { inst; round = round + 1 })
  | Msg.Decision_tag { meta; inst; round; value } ->
    Some (Msg.Decision_tag { meta; inst = inst lxor 1; round; value })
  | Msg.New_round { inst; round } -> Some (Msg.New_round { inst; round = round + 1 })
  | Msg.Prop_dec { inst; round; proposal; decided } ->
    Some (Msg.Prop_dec { inst = inst lxor 1; round; proposal; decided })
  | Msg.Ack_diff { inst; round; piggyback } ->
    Some (Msg.Ack_diff { inst; round = round + 1; piggyback })
  | Msg.Mono_estimate { inst; round; value; ts; piggyback } ->
    Some (Msg.Mono_estimate { inst; round; value; ts = ts lxor 1; piggyback })
  | Msg.Mono_decision_tag { inst; round } ->
    Some (Msg.Mono_decision_tag { inst = inst lxor 1; round })
  | Msg.To_coord m -> Some (Msg.To_coord (flip_app m))
  | Msg.Payload_request { ids } -> (
    match ids with
    | [] -> None
    | id :: rest -> Some (Msg.Payload_request { ids = flip_id id :: rest }))
  | Msg.Payload_push m -> Some (Msg.Payload_push (flip_app m))
  | Msg.Decision_request { inst } -> Some (Msg.Decision_request { inst = inst lxor 1 })
  | Msg.Decision_full { inst; value } ->
    Some (Msg.Decision_full { inst = inst lxor 1; value })

(* Equivocation: a {e well-formed} alternate payload for the same logical
   broadcast — same identities, every carried payload one byte larger.
   The size doubles as the content fingerprint the monitor compares across
   receivers, so two processes adelivering the "same" message with
   different sizes is the smoking gun. Messages carrying no application
   payload are not worth lying about ([None]). *)

let bump_app (m : App_msg.t) = { m with App_msg.size = m.App_msg.size + 1 }
let bump_batch b = Batch.of_list (List.map bump_app (Batch.to_list b))

let equivocate_msg (msg : Msg.t) : Msg.t option =
  match msg with
  | Msg.Diffuse m -> Some (Msg.Diffuse (bump_app m))
  | Msg.Estimate { inst; round; value; ts } ->
    Some (Msg.Estimate { inst; round; value = bump_batch value; ts })
  | Msg.Propose { inst; round; value } ->
    Some (Msg.Propose { inst; round; value = bump_batch value })
  | Msg.Decision_tag { meta; inst; round; value = Some b } ->
    Some (Msg.Decision_tag { meta; inst; round; value = Some (bump_batch b) })
  | Msg.Prop_dec { inst; round; proposal; decided } ->
    Some (Msg.Prop_dec { inst; round; proposal = bump_batch proposal; decided })
  | Msg.Mono_estimate { inst; round; value; ts; piggyback } ->
    Some
      (Msg.Mono_estimate
         { inst; round; value = bump_batch value; ts; piggyback = List.map bump_app piggyback })
  | Msg.Ack_diff { inst; round; piggyback } when piggyback <> [] ->
    Some (Msg.Ack_diff { inst; round; piggyback = List.map bump_app piggyback })
  | Msg.To_coord m -> Some (Msg.To_coord (bump_app m))
  | Msg.Payload_push m -> Some (Msg.Payload_push (bump_app m))
  | Msg.Decision_full { inst; value } ->
    Some (Msg.Decision_full { inst; value = bump_batch value })
  | Msg.Heartbeat | Msg.Ack _ | Msg.Nack _ | Msg.New_round _
  | Msg.Decision_tag { value = None; _ }
  | Msg.Ack_diff _ | Msg.Mono_decision_tag _ | Msg.Payload_request _
  | Msg.Decision_request _ ->
    None

let corrupt_wire (w : Wire_msg.t) : Wire_msg.t option =
  match w with
  | Wire_msg.Tampered _ -> None
  | Wire_msg.Plain msg ->
    let inner = match corrupt_msg msg with Some m -> m | None -> msg in
    Some (Wire_msg.Tampered (Wire_msg.Plain inner))
  | Wire_msg.Frame (Rchannel.Data { seq; payload }) ->
    let payload = match corrupt_msg payload with Some m -> m | None -> payload in
    Some (Wire_msg.Tampered (Wire_msg.Frame (Rchannel.Data { seq; payload })))
  | Wire_msg.Frame (Rchannel.Ack _) -> Some (Wire_msg.Tampered w)

let equivocate_wire (w : Wire_msg.t) : Wire_msg.t option =
  match w with
  | Wire_msg.Plain msg -> Option.map (fun m -> Wire_msg.Plain m) (equivocate_msg msg)
  | Wire_msg.Frame (Rchannel.Data { seq; payload }) ->
    Option.map
      (fun p -> Wire_msg.Frame (Rchannel.Data { seq; payload = p }))
      (equivocate_msg payload)
  | Wire_msg.Frame (Rchannel.Ack _) | Wire_msg.Tampered _ -> None

(* ---- Arming ---- *)

(* The adversary's RNG stream is owned by [Network]: it derives a
   dedicated stream from the run seed ([Rng.derive] under its own salt),
   independent of the engine's stream by construction, so arming an idle
   adversary changes nothing. This module only forwards the seed and the
   message-type-specific mutators. *)
let arm group =
  let net = Group.network group in
  if not (Network.adversary_armed net) then begin
    let params = Group.params group in
    Network.arm_adversary net ~seed:params.Params.seed ~corrupt:corrupt_wire
      ~equivocate:equivocate_wire
  end

(* ---- Strength levels for the study sweep ---- *)

type level = {
  name : string;
  drop_budget : int;
  corrupt : float;
  duplicate : float;
  reorder : Repro_sim.Time.span;
  equivocate : float;
}

let levels ~n =
  let budget k = min k (max 0 (n - 2)) in
  [
    {
      name = "off";
      drop_budget = 0;
      corrupt = 0.0;
      duplicate = 0.0;
      reorder = Time.span_zero;
      equivocate = 0.0;
    };
    {
      name = "weak";
      drop_budget = budget 1;
      corrupt = 0.001;
      duplicate = 0.005;
      reorder = Time.span_us 200;
      equivocate = 0.0;
    };
    {
      name = "medium";
      drop_budget = budget 1;
      corrupt = 0.005;
      duplicate = 0.02;
      reorder = Time.span_ms 1;
      equivocate = 0.0;
    };
    {
      name = "strong";
      drop_budget = budget 2;
      corrupt = 0.02;
      duplicate = 0.05;
      reorder = Time.span_ms 2;
      equivocate = 0.02;
    };
  ]

let schedule_of_level ~at level =
  [
    { Schedule.at; action = Schedule.Adv_drop_budget level.drop_budget };
    { Schedule.at; action = Schedule.Corrupt_rate level.corrupt };
    { Schedule.at; action = Schedule.Duplicate_rate level.duplicate };
    { Schedule.at; action = Schedule.Reorder_window level.reorder };
    { Schedule.at; action = Schedule.Equivocate_rate level.equivocate };
  ]
