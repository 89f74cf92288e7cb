open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs
module Ct = Ct_instances

module L = (val Logs.src_log Log.consensus)

(* An instance's [ext]: its §3.3 kick timer. *)
type kick = Engine.timer option

type t = {
  engine : Engine.t;
  params : Params.t;
  me : Pid.t;
  fd : Fd.t;
  send : dst:Pid.t -> Msg.t -> unit;
  broadcast : Msg.t -> unit;
  rbcast_decision : inst:int -> round:int -> value:Batch.t option -> unit;
  on_decide : inst:int -> Batch.t -> unit;
  obs : Obs.t;
  c_proposals : Obs.counter;
  c_estimates : Obs.counter;
  c_acks : Obs.counter;
  ct : kick Ct.t;
}

let cancel_kick t (s : kick Ct.inst) =
  Ct.cancel t.ct s.ext;
  s.ext <- None

let decide t (s : kick Ct.inst) value =
  if s.decided = None then begin
    cancel_kick t s;
    Ct.decide t.ct s value ~deliver:(fun () -> t.on_decide ~inst:s.inst value)
  end

(* ---- Round progression ---- *)

let rec arm_progress_timer t (s : kick Ct.inst) =
  Ct.cancel t.ct s.progress_timer;
  s.progress_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           if s.decided = None && (s.started || s.estimate <> None) then
             advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:(s.round + 1))))

and value_for_round t (s : kick Ct.inst) ~round =
  if round = 1 then s.estimate
  else
    let ests = Ct.coordinator_estimates t.ct s ~round in
    if List.length ests >= Params.majority t.params then Ct.choose_estimate ests else None

and maybe_propose t (s : kick Ct.inst) ~round =
  if
    s.decided = None
    && Ct.coord t.ct ~round = t.me
    && not (List.mem round s.proposed_rounds)
  then
    match value_for_round t s ~round with
    | None -> ()
    | Some value ->
      if round > s.round then s.round <- round;
      Ct.own_proposal t.ct s ~round value;
      L.debug (fun m ->
          m "%a propose i%d r%d (%d msgs)" Pid.pp t.me s.inst round (Batch.size value));
      Obs.bump t.obs t.c_proposals;
      let sp =
        if Obs.tracing t.obs then
          Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Consensus
            ~phase:"propose"
            ~detail:(Obs.Span.detail3 "i" s.inst " r" round " (" (Batch.size value) " msgs)")
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () ->
          t.broadcast (Msg.Propose { inst = s.inst; round; value });
          arm_progress_timer t s;
          check_majority t s ~round)

and check_majority t (s : kick Ct.inst) ~round =
  if s.decided = None && Ct.coord t.ct ~round = t.me && Ct.has_ack_majority t.ct s ~round then
    match Ct.proposal s ~round ~proposer:t.me with
    | Some value ->
      let carried =
        if t.params.Params.modular.Params.decision_tag_only then None else Some value
      in
      (* Local decision arrives through the rbcast service's local
         delivery, so the coordinator and everyone else share one path. *)
      t.rbcast_decision ~inst:s.inst ~round ~value:carried
    | None -> ()

and send_estimate t (s : kick Ct.inst) ~round =
  (* A process drawn into a recovery round without an initial value
     contributes the empty batch — the §3.3 "start a consensus even if no
     message arrives" behaviour. *)
  if s.estimate = None then s.estimate <- Some Batch.empty;
  match s.estimate with
  | Some value when not (List.mem round s.estimate_sent) ->
    s.estimate_sent <- round :: s.estimate_sent;
    Obs.bump t.obs t.c_estimates;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Consensus
          ~phase:"estimate" ~detail:(Obs.Span.detail2 "i" s.inst " r" round "")
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () ->
        t.send ~dst:(Ct.coord t.ct ~round)
          (Msg.Estimate { inst = s.inst; round; value; ts = s.ts }))
  | Some _ | None -> ()

and advance_round t (s : kick Ct.inst) ~target =
  if s.decided = None && target > s.round then begin
    L.debug (fun m ->
        m "%a advance i%d r%d->r%d (coord %a)" Pid.pp t.me s.inst s.round target Pid.pp
          (Ct.coord t.ct ~round:target));
    s.round <- target;
    cancel_kick t s;
    if Ct.coord t.ct ~round:target = t.me then begin
      maybe_propose t s ~round:target;
      if not (List.mem target s.proposed_rounds) then Ct.solicit t.ct s ~round:target
    end
    else send_estimate t s ~round:target;
    arm_progress_timer t s
  end

(* ---- §3.3 kick: a non-coordinator that proposed but hears nothing wakes
   the round-1 coordinator with its estimate. ---- *)

let arm_kick t (s : kick Ct.inst) =
  if s.ext = None then
    s.ext <-
      Some
        (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
             if s.decided = None && s.round = 1 && s.acked_rounds = [] then
               match s.estimate with
               | Some value ->
                 t.send ~dst:(Ct.coord t.ct ~round:1)
                   (Msg.Estimate { inst = s.inst; round = 1; value; ts = s.ts })
               | None -> ()))

(* ---- Suspicion ---- *)

let on_suspicion t suspect =
  Ct.select t.ct (fun s ->
      (s.started || s.estimate <> None)
      && Ct.coord t.ct ~round:s.round = suspect)
  |> List.iter (fun s ->
         advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:(s.round + 1)))

(* ---- Public entry points ---- *)

let propose t ~inst value =
  if not (Ct.is_logged t.ct inst) then begin
    let s = Ct.state t.ct inst in
    if not s.started then begin
      s.started <- true;
      if s.estimate = None then s.estimate <- Some value;
      let c1 = Ct.coord t.ct ~round:1 in
      if s.round = 1 then begin
        if c1 = t.me then maybe_propose t s ~round:1
        else if Fd.is_suspected t.fd c1 then
          advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:2)
        else arm_kick t s
      end;
      arm_progress_timer t s
    end
  end

(* The handlers below get live instances only: [receive] answers a
   logged one from the log. *)

let handle_propose t (s : kick Ct.inst) ~src ~round ~value =
  if src = Ct.coord t.ct ~round && round >= s.round then begin
    s.round <- round;
    cancel_kick t s;
    Ct.set_proposal s ~round ~proposer:src value;
    if s.estimate = None then s.estimate <- Some value;
    if Fd.is_suspected t.fd src then
      advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:(round + 1))
    else if not (List.mem round s.acked_rounds) then begin
      s.acked_rounds <- round :: s.acked_rounds;
      s.estimate <- Some value;
      s.ts <- round;
      Obs.bump t.obs t.c_acks;
      let sp =
        if Obs.tracing t.obs then
          Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Consensus ~phase:"ack"
            ~detail:(Obs.Span.detail2 "i" s.inst " r" round "")
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () ->
          t.send ~dst:src (Msg.Ack { inst = s.inst; round }));
      arm_progress_timer t s
    end
  end

let handle_estimate t (s : kick Ct.inst) ~src ~round ~ts ~value =
  if round = 1 then begin
    (* §3.3 kick: adopt the value if we have none, and propose if we are
       the (possibly idle) round-1 coordinator. *)
    if Ct.coord t.ct ~round:1 = t.me then begin
      if s.estimate = None then s.estimate <- Some value;
      maybe_propose t s ~round:1
    end
  end
  else begin
    let previous_round = s.round in
    if round > s.round then s.round <- round;
    Ct.record_estimate s ~round ~src ~ts ~value;
    if s.estimate = None then s.estimate <- Some value;
    if Ct.coord t.ct ~round = t.me then begin
      maybe_propose t s ~round;
      if not (List.mem round s.proposed_rounds) then Ct.solicit t.ct s ~round
    end
    else if round > previous_round then send_estimate t s ~round
  end

let handle_new_round t (s : kick Ct.inst) ~round =
  if round > s.round then advance_round t s ~target:round
  else if round = s.round && Ct.coord t.ct ~round <> t.me then send_estimate t s ~round

(* A late proposal, estimate or solicitation for a decided instance is
   answered with the decision; a late ack (the decision's reliable
   broadcast reaches the acker anyway) or decision needs nothing. *)
let receive t ~src msg =
  match msg with
  | Msg.Propose { inst; round; value } ->
    if Ct.is_logged t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
    else handle_propose t (Ct.state t.ct inst) ~src ~round ~value
  | Msg.Ack { inst; round } ->
    if not (Ct.is_logged t.ct inst) then begin
      let s = Ct.state t.ct inst in
      if Ct.coord t.ct ~round = t.me then begin
        Ct.add_ack s ~round ~src;
        check_majority t s ~round
      end
    end
  | Msg.Estimate { inst; round; value; ts } ->
    if Ct.is_logged t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
    else handle_estimate t (Ct.state t.ct inst) ~src ~round ~ts ~value
  | Msg.New_round { inst; round } ->
    if Ct.is_logged t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
    else handle_new_round t (Ct.state t.ct inst) ~round
  | Msg.Decision_request { inst } -> Ct.answer_request t.ct ~inst ~src
  | Msg.Decision_full { inst; value } ->
    if not (Ct.is_logged t.ct inst) then decide t (Ct.state t.ct inst) value
  | Msg.Heartbeat | Msg.Diffuse _ | Msg.Nack _ | Msg.Decision_tag _ | Msg.Prop_dec _
  | Msg.Ack_diff _ | Msg.Mono_estimate _ | Msg.Mono_decision_tag _ | Msg.To_coord _
  | Msg.Payload_request _ | Msg.Payload_push _ ->
    ()

let rb_deliver t ~proposer ~inst ~round ~value =
  if not (Ct.is_logged t.ct inst) then
    let s = Ct.state t.ct inst in
    match Ct.announced_value t.ct s ~round ~proposer ~value with
    | Some v -> decide t s v
    | None -> ()

let create ~engine ~params ~me ~fd ~send ~broadcast ~rbcast_decision ~on_decide
    ?(obs = Obs.noop) () =
  let t =
    {
      engine;
      params;
      me;
      fd;
      send;
      broadcast;
      rbcast_decision;
      on_decide;
      obs;
      c_proposals = Obs.counter obs "consensus.proposals";
      c_estimates = Obs.counter obs "consensus.estimates";
      c_acks = Obs.counter obs "consensus.acks";
      ct =
        Ct.create ~engine ~params ~me ~fd ~send ~broadcast ~log:(module L)
          ~first_round:1
          ~first_ext:None
          ~obs ~layer:`Consensus
          ~decisions:(Obs.counter obs "consensus.decisions")
          ~decide_ms:(Some (Obs.histogram obs "consensus.decide_ms"));
    }
  in
  Fd.on_suspect fd (fun suspect -> on_suspicion t suspect);
  t

let decision t ~inst = Ct.decision t.ct ~inst
let rounds_used t ~inst = Ct.rounds_used t.ct ~inst
let live_instances t = Ct.live t.ct

let snapshot ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "core.consensus.p%d" (t.me + 1)
  in
  Ct.snapshot ~name ~strip:(fun _ -> None) () t.ct
