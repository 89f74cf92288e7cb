open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs
module Ct = Ct_instances

module L = (val Logs.src_log Log.consensus)

(* Here an instance's [acked_rounds] counts rounds answered with an ack
   OR a nack, and instances start in round 0, which becomes 1 on the
   first [enter_round]. This engine keeps no per-instance state of its
   own. *)

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
  ct : unit Ct.t;
}

let decide t (s : unit Ct.inst) value =
  if s.decided = None then
    Ct.decide t.ct s value ~deliver:(fun () -> t.on_decide ~inst:s.inst value)

(* Phase 2: the round's coordinator proposes once it holds a majority of
   estimates (its own included). *)
let rec try_propose t (s : unit Ct.inst) ~round =
  if
    s.decided = None
    && Ct.coord t.ct ~round = t.me
    && not (List.mem round s.proposed_rounds)
  then begin
    let ests = Ct.estimates_for s ~round in
    if List.length ests >= Params.majority t.params then
      match Ct.choose_estimate ests with
      | None -> ()
      | Some value ->
        Ct.own_proposal t.ct s ~round value;
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
            check_majority t s ~round)
  end

and check_majority t (s : unit Ct.inst) ~round =
  if
    s.decided = None
    && List.mem round s.proposed_rounds
    && Ct.has_ack_majority t.ct s ~round
  then
    match Ct.proposal s ~round ~proposer:t.me with
    | Some value ->
      (* Classical: the full decided value is reliably broadcast; the
         local decision arrives through the rbcast local delivery. *)
      t.rbcast_decision ~inst:s.inst ~round ~value:(Some value)
    | None -> ()

(* Phase 1: enter a round and send the estimate to its coordinator. *)
and enter_round t (s : unit Ct.inst) ~round =
  if s.decided = None && round > s.round then begin
    let round = Ct.next_unsuspected_round t.ct ~from:round in
    s.round <- round;
    if s.estimate = None then s.estimate <- Some Batch.empty;
    (match s.estimate with
    | Some value ->
      let c = Ct.coord t.ct ~round in
      Ct.record_estimate s ~round ~src:t.me ~ts:s.ts ~value;
      if c <> t.me then begin
        Obs.bump t.obs t.c_estimates;
        let sp =
          if Obs.tracing t.obs then
            Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Consensus
              ~phase:"estimate" ~detail:(Obs.Span.detail2 "i" s.inst " r" round "")
          else Obs.Span.no_parent
        in
        Obs.with_span_ctx t.obs sp (fun () ->
            t.send ~dst:c (Msg.Estimate { inst = s.inst; round; value; ts = s.ts }))
      end
      else try_propose t s ~round
    | None -> ());
    arm_progress_timer t s
  end

(* Phase 3 refusal: suspect the coordinator, nack, move on. *)
and nack_and_advance t (s : unit Ct.inst) =
  if s.decided = None && s.round >= 1 && not (List.mem s.round s.acked_rounds) then begin
    s.acked_rounds <- s.round :: s.acked_rounds;
    t.send ~dst:(Ct.coord t.ct ~round:s.round) (Msg.Nack { inst = s.inst; round = s.round });
    enter_round t s ~round:(s.round + 1)
  end

and arm_progress_timer t (s : unit Ct.inst) =
  Ct.cancel t.ct s.progress_timer;
  s.progress_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           if s.decided = None && (s.started || s.estimate <> None) then
             if List.mem s.round s.acked_rounds then enter_round t s ~round:(s.round + 1)
             else nack_and_advance t s))

(* ---- Entry points ---- *)

let propose t ~inst value =
  if not (Ct.is_logged t.ct inst) then begin
    let s = Ct.state t.ct inst in
    if not s.started then begin
      s.started <- true;
      if s.estimate = None then s.estimate <- Some value;
      if s.round = 0 then enter_round t s ~round:1
    end
  end

(* The handlers below get live instances only: [receive] answers a
   logged one from the log. *)

let handle_estimate t (s : unit Ct.inst) ~src ~round ~ts ~value =
  Ct.record_estimate s ~round ~src ~ts ~value;
  (* Participation: an estimate reveals a running instance. *)
  if s.estimate = None then s.estimate <- Some value;
  if s.round = 0 then enter_round t s ~round:1;
  if Ct.coord t.ct ~round = t.me then try_propose t s ~round

let handle_propose t (s : unit Ct.inst) ~src ~round ~value =
  if
    src = Ct.coord t.ct ~round && not (List.mem round s.acked_rounds) && round >= s.round
  then begin
    if s.round = 0 then s.round <- round;
    if round > s.round then s.round <- round;
    Ct.set_proposal s ~round ~proposer:src value;
    s.acked_rounds <- round :: s.acked_rounds;
    if Fd.is_suspected t.fd src then begin
      t.send ~dst:src (Msg.Nack { inst = s.inst; round });
      enter_round t s ~round:(round + 1)
    end
    else begin
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
      (* Classical cycling: the next round starts immediately. *)
      enter_round t s ~round:(round + 1)
    end
  end

let on_suspicion t suspect =
  Ct.select t.ct (fun s ->
      s.round >= 1
      && Ct.coord t.ct ~round:s.round = suspect
      && not (List.mem s.round s.acked_rounds))
  |> List.iter (fun s -> nack_and_advance t s)

(* A late estimate or proposal for a decided instance is answered with
   the decision; anything else late needs nothing. *)
let receive t ~src msg =
  match msg with
  | Msg.Estimate { inst; round; value; ts } ->
    if Ct.is_logged t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
    else handle_estimate t (Ct.state t.ct inst) ~src ~round ~ts ~value
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
  | Msg.Nack _ ->
    (* In the event-driven rendering the coordinator never blocks on a
       majority of replies, so a nack needs no action; it exists to match
       the classical protocol's message pattern. *)
    ()
  | Msg.Decision_request { inst } -> Ct.answer_request t.ct ~inst ~src
  | Msg.Decision_full { inst; value } ->
    if not (Ct.is_logged t.ct inst) then decide t (Ct.state t.ct inst) value
  | Msg.New_round { inst; round } ->
    (* Solicitations are an optimized-variant mechanism; treat as a hint to
       catch up. *)
    if not (Ct.is_logged t.ct inst) then begin
      let s = Ct.state t.ct inst in
      if round > s.round then enter_round t s ~round
    end
  | Msg.Heartbeat | Msg.Diffuse _ | Msg.Decision_tag _ | Msg.Prop_dec _ | Msg.Ack_diff _
  | Msg.Mono_estimate _ | Msg.Mono_decision_tag _ | Msg.To_coord _
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
          ~first_round:0
          ~first_ext:()
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
    | None -> Printf.sprintf "core.consensus_classic.p%d" (t.me + 1)
  in
  Ct.snapshot ~name ~strip:Fun.id () t.ct
