open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs

module L = (val Logs.src_log Log.mono)

module Ct = Ct_instances

type t = {
  engine : Engine.t;
  params : Params.t;
  me : Pid.t;
  fd : Fd.t;
  send : dst:Pid.t -> Msg.t -> unit;
  broadcast : Msg.t -> unit;
  on_adeliver : App_msg.t -> unit;
  obs : Obs.t;
  c_adelivers : Obs.counter;
  h_e2e_ms : Obs.histogram;
  c_abcasts : Obs.counter;
  ct : unit Ct.t;
  mutable unannounced : int array;
      (* [unannounced_n] (instance, round) pairs, flattened: decisions
         taken here as the round's proposer that no later proposal or tag
         has carried to the others yet. An entry leaves within the step
         that decided it, so there is rarely more than one. *)
  mutable unannounced_n : int;
  delivered : Id_table.t;
  mutable next_deliver : int; (* next instance to adeliver *)
  mutable launched : int; (* highest instance this process launched *)
  mutable pool : Batch.t; (* coordinator-role pool of unordered messages *)
  mutable own_unsent : App_msg.t list; (* own messages not yet conveyed *)
  mutable own_outstanding : Batch.t; (* own messages not yet adelivered *)
  decisions_buf : (int, Batch.t) Hashtbl.t;
  mutable active_acked : int;
      (* undecided instances this process has acked — nonzero means the
         pipeline is running and an ack to piggyback on is imminent *)
  mutable ack_imminent : bool;
      (* set while a proposal we are about to ack is being processed, so
         that admissions triggered by its piggybacked decision (window
         slots freeing) hold for that very ack instead of going standalone *)
  mutable delivered_count : int;
  mutable kick_timer : Engine.timer option;
  decision_rb : (int * int) Rbcast.t option ref;
      (* reliable broadcast of standalone decision tags, used only in the
         [cheap_decision = false] ablation *)
}

(* The steward launches new instances and receives stray abcast messages:
   the lowest-pid process this one does not suspect (p1 in good runs). *)
let steward t =
  let rec scan p = if p < t.params.Params.n && Fd.is_suspected t.fd p then scan (p + 1) else p in
  let s = scan 0 in
  if s >= t.params.Params.n then 0 else s

let am_steward t = steward t = t.me

let delivered_mem t (m : App_msg.t) =
  Id_table.mem t.delivered ~origin:m.App_msg.id.App_msg.origin
    ~seq:m.App_msg.id.App_msg.seq

let pool_add t m = if not (delivered_mem t m) then t.pool <- Batch.add t.pool m

let pipeline_active t = t.active_acked > 0 || t.ack_imminent

let add_unannounced t ~inst ~round =
  let len = Array.length t.unannounced in
  if 2 * t.unannounced_n = len then begin
    let a = Array.make (max 2 (2 * len)) 0 in
    Array.blit t.unannounced 0 a 0 len;
    t.unannounced <- a
  end;
  t.unannounced.(2 * t.unannounced_n) <- inst;
  t.unannounced.((2 * t.unannounced_n) + 1) <- round;
  t.unannounced_n <- t.unannounced_n + 1

(* The round of [inst]'s unannounced decision, which leaves the set; -1
   if it has none. A loop, not a local function: no closure per call. *)
let take_unannounced t inst =
  let i = ref 0 in
  while !i < t.unannounced_n && t.unannounced.(2 * !i) <> inst do
    incr i
  done;
  if !i = t.unannounced_n then -1
  else begin
    let round = t.unannounced.((2 * !i) + 1) and last = t.unannounced_n - 1 in
    t.unannounced.(2 * !i) <- t.unannounced.(2 * last);
    t.unannounced.((2 * !i) + 1) <- t.unannounced.((2 * last) + 1);
    t.unannounced_n <- last;
    round
  end

(* ---- Delivery ---- *)

let adeliver_batch t batch =
  Batch.iter
    (fun m ->
      if not (delivered_mem t m) then begin
        Id_table.add t.delivered ~origin:m.App_msg.id.App_msg.origin
          ~seq:m.App_msg.id.App_msg.seq;
        t.delivered_count <- t.delivered_count + 1;
        Obs.bump t.obs t.c_adelivers;
        Obs.sample_since t.obs t.h_e2e_ms m.App_msg.abcast_at;
        t.on_adeliver m
      end)
    batch;
  t.pool <- Batch.diff t.pool batch;
  t.own_outstanding <- Batch.diff t.own_outstanding batch;
  t.own_unsent <-
    List.filter (fun m -> not (Batch.mem batch m.App_msg.id)) t.own_unsent

let rec drain t =
  match Hashtbl.find_opt t.decisions_buf t.next_deliver with
  | Some batch ->
    Hashtbl.remove t.decisions_buf t.next_deliver;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"adeliver"
          ~detail:(Obs.Span.detail2 "i" t.next_deliver " (" (Batch.size batch) " msgs)")
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () -> adeliver_batch t batch);
    t.next_deliver <- t.next_deliver + 1;
    drain t
  | None -> ()

(* ---- Decision & pipeline ---- *)

let take_own_unsent t =
  let piggyback = List.rev t.own_unsent in
  t.own_unsent <- [];
  piggyback

let rec arm_progress_timer t (s : unit Ct.inst) =
  Ct.cancel t.ct s.progress_timer;
  s.progress_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           if s.decided = None && (s.estimate <> None || s.acked_rounds <> []) then
             advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:(s.round + 1))))

(* A decision taken here as a round's proposer enters [unannounced]
   before this. *)
and mono_decide t (s : unit Ct.inst) value =
  if s.decided = None then begin
    if s.acked_rounds <> [] then t.active_acked <- t.active_acked - 1;
    Hashtbl.replace t.decisions_buf s.inst value;
    Ct.decide t.ct s value ~deliver:(fun () -> drain t);
    (* Idle transition: the last instance just decided and nothing else is
       running — any held own messages must reach the coordinator now. *)
    if (not (pipeline_active t)) && t.own_unsent <> [] && not (am_steward t) then begin
      let held = take_own_unsent t in
      List.iter (fun m -> t.send ~dst:(steward t) (Msg.To_coord m)) held
    end
  end

(* Announce a decision that could not ride a follow-up proposal. *)
and announce_standalone t (s : unit Ct.inst) =
  let round = take_unannounced t s.inst in
  if round >= 0 then begin
    if t.params.Params.mono.Params.cheap_decision then
      t.broadcast (Msg.Mono_decision_tag { inst = s.inst; round })
    else begin
      (* Ablation §4.3 off: disseminate the tag by reliable broadcast, as
         the modular stack must. *)
      match !(t.decision_rb) with
      | Some rb -> Rbcast.rbcast rb (s.inst, round)
      | None -> t.broadcast (Msg.Mono_decision_tag { inst = s.inst; round })
    end
  end

and maybe_launch t =
  let k = Ct.max_decided t.ct + 1 in
  if
    am_steward t && t.launched < k
    && (not (Batch.is_empty t.pool))
    && k = t.next_deliver (* all previous instances fully delivered here *)
  then begin
    (* [k] is above every decision here, so it is not logged. *)
    let s = Ct.state t.ct k in
    if not (List.mem 1 s.proposed_rounds) then begin
      let proposal = Batch.take t.pool ~cap:t.params.Params.batch_cap in
      t.pool <- Batch.diff t.pool proposal;
      t.launched <- k;
      Ct.own_proposal t.ct s ~round:1 proposal;
      let decided =
        if t.params.Params.mono.Params.combine_proposal_decision then
          let round = take_unannounced t (k - 1) in
          if round >= 0 then Some (k - 1, round) else None
        else None
      in
      L.debug (fun m ->
          m "%a launch i%d (%d msgs%s)" Pid.pp t.me k (Batch.size proposal)
            (match decided with
            | Some (d, _) -> Printf.sprintf ", +decision i%d" d
            | None -> ""));
      let sp =
        if Obs.tracing t.obs then
          Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"propose"
            ~detail:(Obs.Span.detail2 "i" k " r1 (" (Batch.size proposal) " msgs)")
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () ->
          t.broadcast (Msg.Prop_dec { inst = k; round = 1; proposal; decided });
          arm_progress_timer t s;
          check_majority t s ~round:1)
    end
  end

and post_decide_coordinator t (s : unit Ct.inst) =
  (* Decided as the proposer of a round: either the decision rides the next
     proposal, or it must be announced standalone. *)
  maybe_launch t;
  announce_standalone t s

and check_majority t (s : unit Ct.inst) ~round =
  if
    s.decided = None
    && List.mem round s.proposed_rounds
    && Ct.has_ack_majority t.ct s ~round
  then
    match Ct.proposal s ~round ~proposer:t.me with
    | Some value ->
      add_unannounced t ~inst:s.inst ~round;
      mono_decide t s value;
      if round = 1 then post_decide_coordinator t s
      else begin
        (* Recovery rounds disseminate explicitly, with the full value
           for robustness. *)
        ignore (take_unannounced t s.inst);
        t.broadcast (Msg.Decision_full { inst = s.inst; value });
        maybe_launch t
      end
    | None -> ()

and send_estimate t (s : unit Ct.inst) ~round =
  if s.estimate = None then s.estimate <- Some Batch.empty;
  match s.estimate with
  | Some value when not (List.mem round s.estimate_sent) ->
    s.estimate_sent <- round :: s.estimate_sent;
    (* §4.2: on a coordinator change, re-piggyback every own message not
       yet adelivered — the previous coordinator may have died with them. *)
    let piggyback = Batch.to_list t.own_outstanding in
    t.own_unsent <-
      List.filter
        (fun m -> not (List.exists (fun m' -> App_msg.equal_id m.App_msg.id m'.App_msg.id) piggyback))
        t.own_unsent;
    t.send ~dst:(Ct.coord t.ct ~round)
      (Msg.Mono_estimate { inst = s.inst; round; value; ts = s.ts; piggyback })
  | Some _ | None -> ()

and maybe_propose_recovery t (s : unit Ct.inst) ~round =
  if
    s.decided = None && round >= 2
    && Ct.coord t.ct ~round = t.me
    && not (List.mem round s.proposed_rounds)
  then begin
    let ests = Ct.coordinator_estimates t.ct s ~round in
    if List.length ests >= Params.majority t.params then begin
      match Ct.choose_estimate ests with
      | None -> ()
      | Some value ->
        if round > s.round then s.round <- round;
        Ct.own_proposal t.ct s ~round value;
        let sp =
          if Obs.tracing t.obs then
            Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"propose"
              ~detail:(Obs.Span.detail3 "i" s.inst " r" round " (" (Batch.size value) " msgs)")
          else Obs.Span.no_parent
        in
        Obs.with_span_ctx t.obs sp (fun () ->
            t.broadcast
              (Msg.Prop_dec { inst = s.inst; round; proposal = value; decided = None });
            arm_progress_timer t s;
            check_majority t s ~round)
    end
  end

and advance_round t (s : unit Ct.inst) ~target =
  if s.decided = None && target > s.round then begin
    L.debug (fun m ->
        m "%a advance i%d r%d->r%d" Pid.pp t.me s.inst s.round target);
    s.round <- target;
    if Ct.coord t.ct ~round:target = t.me then begin
      maybe_propose_recovery t s ~round:target;
      if not (List.mem target s.proposed_rounds) then Ct.solicit t.ct s ~round:target
    end
    else send_estimate t s ~round:target;
    arm_progress_timer t s
  end

(* ---- Decision tags ---- *)

let handle_decision_tag t ~inst ~round ~proposer =
  if not (Ct.is_logged t.ct inst) then
    let s = Ct.state t.ct inst in
    match Ct.announced_value t.ct s ~round ~proposer ~value:None with
    | Some value -> mono_decide t s value
    | None -> ()

(* ---- Abcast entry ---- *)

let flush_kick t =
  (* Safety net, armed while own messages are outstanding: re-convey them
     to the current steward. Never fires in good runs. *)
  if not (Batch.is_empty t.own_outstanding) then begin
    if am_steward t then begin
      List.iter (fun m -> pool_add t m) (Batch.to_list t.own_outstanding);
      t.own_unsent <- [];
      maybe_launch t
    end
    else begin
      t.own_unsent <- [];
      List.iter
        (fun m -> t.send ~dst:(steward t) (Msg.To_coord m))
        (Batch.to_list t.own_outstanding)
    end
  end

let rec arm_kick t =
  Ct.cancel t.ct t.kick_timer;
  t.kick_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           flush_kick t;
           if not (Batch.is_empty t.own_outstanding) then arm_kick t))

let abcast t m =
  if not (delivered_mem t m) then begin
    Obs.bump t.obs t.c_abcasts;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"abcast"
          ~detail:
            (Obs.Span.detail2 "m " (m.App_msg.id.App_msg.origin + 1) "/"
               m.App_msg.id.App_msg.seq "")
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () ->
        t.own_outstanding <- Batch.add t.own_outstanding m;
        arm_kick t;
        if am_steward t then begin
          pool_add t m;
          maybe_launch t
        end
        else if t.params.Params.mono.Params.piggyback_on_ack && pipeline_active t then
          (* §4.2: hold for the next ack to the coordinator. *)
          t.own_unsent <- t.own_unsent @ [ m ]
        else if t.params.Params.mono.Params.piggyback_on_ack then
          (* Idle system: straight to the coordinator, and only to it. *)
          t.send ~dst:(steward t) (Msg.To_coord m)
        else
          (* Ablation §4.2 off: diffuse to everyone like the modular stack;
             the steward will pick it up below via [receive]. *)
          t.broadcast (Msg.To_coord m))
  end

(* ---- Receive ---- *)

let handle_prop_dec t ~src ~inst ~round ~proposal ~decided =
  (* Will this proposal be acked? Decide before processing the carried
     decision: the decision frees window slots, and those admissions must
     ride the ack we are about to send (Fig. 6's "ack + diffusion"). *)
  let will_ack =
    (not (Ct.is_logged t.ct inst))
    &&
    let s = Ct.state t.ct inst in
    round >= s.round
    && (not (Fd.is_suspected t.fd src))
    && not (List.mem round s.acked_rounds)
  in
  if will_ack then t.ack_imminent <- true;
  (match decided with
  | Some (d, dr) -> handle_decision_tag t ~inst:d ~round:dr ~proposer:src
  | None -> ());
  t.ack_imminent <- false;
  if Ct.is_logged t.ct inst then begin
    (* The proposer missed our decision (e.g. recovery ended first). *)
    if round >= Ct.logged_round t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
  end
  else
    let s = Ct.state t.ct inst in
    if round >= s.round then begin
      s.round <- round;
      Ct.set_proposal s ~round ~proposer:src proposal;
      if s.estimate = None then s.estimate <- Some proposal;
      if Fd.is_suspected t.fd src then
        advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:(round + 1))
      else if not (List.mem round s.acked_rounds) then begin
        if s.acked_rounds = [] then t.active_acked <- t.active_acked + 1;
        s.acked_rounds <- round :: s.acked_rounds;
        s.estimate <- Some proposal;
        s.ts <- round;
        let piggyback =
          if t.params.Params.mono.Params.piggyback_on_ack then take_own_unsent t else []
        in
        let sp =
          if Obs.tracing t.obs then
            Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"ack"
              ~detail:(Obs.Span.detail2 "i" inst " r" round "")
          else Obs.Span.no_parent
        in
        Obs.with_span_ctx t.obs sp (fun () ->
            t.send ~dst:src (Msg.Ack_diff { inst; round; piggyback }));
        arm_progress_timer t s
      end
    end

let handle_ack_diff t ~src ~inst ~round ~piggyback =
  (* Piggybacked messages are ingested no matter how late the ack is —
     otherwise they would be lost. *)
  List.iter (fun m -> pool_add t m) piggyback;
  if not (Ct.is_logged t.ct inst) then begin
    let s = Ct.state t.ct inst in
    if List.mem round s.proposed_rounds then begin
      Ct.add_ack s ~round ~src;
      check_majority t s ~round
    end
  end;
  (* New pool content may allow launching the next instance. *)
  maybe_launch t

let handle_mono_estimate t ~src ~inst ~round ~ts ~value ~piggyback =
  List.iter (fun m -> pool_add t m) piggyback;
  if Ct.is_logged t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
  else begin
    let s = Ct.state t.ct inst in
    if round >= 2 then begin
      if round > s.round then s.round <- round;
      Ct.record_estimate s ~round ~src ~ts ~value;
      if Ct.coord t.ct ~round = t.me then begin
        maybe_propose_recovery t s ~round;
        if not (List.mem round s.proposed_rounds) then Ct.solicit t.ct s ~round
      end
    end
  end;
  maybe_launch t

let handle_new_round t ~src ~inst ~round =
  if Ct.is_logged t.ct inst then Ct.reply_decision t.ct ~inst ~dst:src
  else
    let s = Ct.state t.ct inst in
    if round > s.round then advance_round t s ~target:round
    else if round = s.round && Ct.coord t.ct ~round <> t.me then send_estimate t s ~round

let on_suspicion t suspect =
  Ct.select t.ct (fun s ->
      (s.estimate <> None || s.acked_rounds <> [])
      &&
      (* The process whose silence blocks this instance: the proposer we
         acked in the current round (lowest pid when several proposed, so
         arrival order never picks), or the schedule coordinator. *)
      let acked_proposer =
        List.fold_left
          (fun acc ((r, p), _) -> if Int.equal r s.round then p :: acc else acc)
          [] s.proposals
        |> List.sort Pid.compare
        |> function p :: _ -> Some p | [] -> None
      in
      let waiting_on =
        match acked_proposer with Some p -> p | None -> Ct.coord t.ct ~round:s.round
      in
      waiting_on = suspect)
  |> List.iter (fun s ->
         advance_round t s ~target:(Ct.next_unsuspected_round t.ct ~from:(s.round + 1)));
  (* Stewardship may have changed; stray messages are re-routed by the
     kick timer, which is armed whenever own messages are outstanding. *)
  maybe_launch t

let receive t ~src msg =
  match msg with
  | Msg.Prop_dec { inst; round; proposal; decided } ->
    handle_prop_dec t ~src ~inst ~round ~proposal ~decided
  | Msg.Ack_diff { inst; round; piggyback } ->
    handle_ack_diff t ~src ~inst ~round ~piggyback
  | Msg.Mono_estimate { inst; round; value; ts; piggyback } ->
    handle_mono_estimate t ~src ~inst ~round ~ts ~value ~piggyback
  | Msg.Mono_decision_tag { inst; round } ->
    handle_decision_tag t ~inst ~round ~proposer:src
  | Msg.To_coord m ->
    pool_add t m;
    maybe_launch t
  | Msg.New_round { inst; round } -> handle_new_round t ~src ~inst ~round
  | Msg.Decision_request { inst } -> Ct.answer_request t.ct ~inst ~src
  | Msg.Decision_full { inst; value } ->
    if not (Ct.is_logged t.ct inst) then begin
      mono_decide t (Ct.state t.ct inst) value;
      maybe_launch t
    end
  | Msg.Decision_tag { meta; inst; round; value = _ } -> begin
    (* Cheap-decision ablation: tags arrive through reliable broadcast. *)
    match !(t.decision_rb) with
    | Some rb -> Rbcast.receive rb ~src ~meta (inst, round)
    | None -> handle_decision_tag t ~inst ~round ~proposer:meta.Msg.rb_origin
  end
  | Msg.Heartbeat | Msg.Diffuse _ | Msg.Estimate _ | Msg.Propose _ | Msg.Ack _
  | Msg.Nack _ | Msg.Payload_request _ | Msg.Payload_push _ ->
    ()

let create ~engine ~params ~me ~fd ~send ~broadcast ~on_adeliver ?(obs = Obs.noop) () =
  let t =
    {
      engine;
      params;
      me;
      fd;
      send;
      broadcast;
      on_adeliver;
      obs;
      c_adelivers = Obs.counter obs "abcast.adelivers";
      h_e2e_ms = Obs.histogram obs "abcast.e2e_ms";
      c_abcasts = Obs.counter obs "abcast.abcasts";
      ct =
        Ct.create ~engine ~params ~me ~fd ~send ~broadcast ~log:(module L) ~first_round:1
          ~first_ext:()
          ~obs ~layer:`Abcast
          ~decisions:(Obs.counter obs "abcast.decisions")
          ~decide_ms:None;
      unannounced = [||];
      unannounced_n = 0;
      delivered = Id_table.create ~n:params.Params.n;
      next_deliver = 0;
      launched = -1;
      pool = Batch.empty;
      own_unsent = [];
      own_outstanding = Batch.empty;
      decisions_buf = Hashtbl.create 16;
      active_acked = 0;
      ack_imminent = false;
      delivered_count = 0;
      kick_timer = None;
      decision_rb = ref None;
    }
  in
  if not params.Params.mono.Params.cheap_decision then begin
    let rb =
      Rbcast.create ~me ~n:params.Params.n ~variant:params.Params.modular.Params.rbcast_variant
        ~broadcast:(fun ~meta (inst, round) ->
          broadcast (Msg.Decision_tag { meta; inst; round; value = None }))
        ~deliver:(fun ~meta (inst, round) ->
          handle_decision_tag t ~inst ~round ~proposer:meta.Msg.rb_origin)
        ~obs ()
    in
    t.decision_rb := Some rb
  end;
  Fd.on_suspect fd (fun suspect -> on_suspicion t suspect);
  t

let delivered_count t = t.delivered_count
let decided_instances t = t.next_deliver
let live_instances t = Ct.live t.ct

(* ---- Snapshot ---- *)

module Snap = Snapshot

type ab_data = {
  ad_unannounced : int array; (* (instance, round) pairs, flattened *)
  ad_delivered : Id_table.t;
  ad_next_deliver : int;
  ad_launched : int;
  ad_pool : Batch.t;
  ad_own_unsent : App_msg.t list;
  ad_own_outstanding : Batch.t;
  ad_decisions_buf : (int * Batch.t) list; (* ascending inst *)
  ad_active_acked : int;
  ad_ack_imminent : bool;
  ad_delivered_count : int;
}

let snapshot ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "core.abcast_monolithic.p%d" (t.me + 1)
  in
  let decisions_buf =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.decisions_buf []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (* Decided values for the most recent instances, rendered for bisect's
     state-diff report: when a total-order violation localizes to a
     window, these are the per-process decision logs that disagree. *)
  let decision_window =
    List.filter_map
      (fun k ->
        match Ct.decision t.ct ~inst:k with
        | Some b -> Some (Printf.sprintf "decision.i%d" k, Snap.String (Fmt.str "%a" Batch.pp b))
        | None -> None)
      (List.init 8 (fun i -> Ct.max_decided t.ct - 7 + i))
  in
  Ct.snapshot ~name ~strip:Fun.id
    ~fields:
      ([
         ("next_deliver", Snap.Int t.next_deliver);
         ("launched", Snap.Int t.launched);
         ("delivered_count", Snap.Int t.delivered_count);
         ("active_acked", Snap.Int t.active_acked);
         ("ack_imminent", Snap.Bool t.ack_imminent);
         ("pool", Snap.Int (Batch.size t.pool));
         ("own_unsent", Snap.Int (List.length t.own_unsent));
         ("own_outstanding", Snap.Int (Batch.size t.own_outstanding));
         ("buffered_decisions", Snap.Int (List.length decisions_buf));
         (* Nonzero outside a pipeline step means nobody else was told
            of a decision taken here (a crashed steward leaves such
            holes behind). *)
         ("unannounced", Snap.Int t.unannounced_n);
       ]
      @ decision_window)
    {
      ad_unannounced = Array.sub t.unannounced 0 (2 * t.unannounced_n);
      ad_delivered = t.delivered;
      ad_next_deliver = t.next_deliver;
      ad_launched = t.launched;
      ad_pool = t.pool;
      ad_own_unsent = t.own_unsent;
      ad_own_outstanding = t.own_outstanding;
      ad_decisions_buf = decisions_buf;
      ad_active_acked = t.active_acked;
      ad_ack_imminent = t.ack_imminent;
      ad_delivered_count = t.delivered_count;
    }
    t.ct
