open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs

module L = (val Logs.src_log Log.mono)

type inst_state = {
  inst : int;
  mutable round : int;
  mutable estimate : Batch.t option;
  mutable ts : int;
  (* The per-round tables are association lists, newest first: a good run
     uses one round, so a hash table per instance would be mostly empty. *)
  mutable proposals : ((int * Pid.t) * Batch.t) list; (* (round, proposer) -> value *)
  mutable acked_rounds : int list;
  mutable acks : (int * Pid.t list ref) list;
  mutable estimates : (int * (Pid.t * (int * Batch.t)) list ref) list;
  mutable estimate_sent : int list;
  mutable proposed_rounds : int list;
  mutable solicited_rounds : int list;
  mutable decided : Batch.t option;
  mutable decided_here_round : int option; (* round in which I decided as proposer *)
  mutable announced : bool; (* decision already carried by a later proposal or tag *)
  mutable pending_requesters : Pid.t list;
  mutable progress_timer : Engine.timer option;
}

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
  c_decisions : Obs.counter;
  c_abcasts : Obs.counter;
  instances : (int, inst_state) Hashtbl.t;
  delivered : Id_table.t;
  mutable next_deliver : int; (* next instance to adeliver *)
  mutable max_decided : int; (* highest locally decided instance *)
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
  mutable catchup_timer : Engine.timer option;
      (* armed while [next_deliver <= max_decided], i.e. a decided instance
         sits above an undecided hole; see [arm_catchup] *)
  decision_rb : (int * int) Rbcast.t option ref;
      (* reliable broadcast of standalone decision tags, used only in the
         [cheap_decision = false] ablation *)
}

let coord t ~round = Params.coordinator t.params ~round

let next_unsuspected_round t ~from =
  let rec scan r tries =
    if tries = 0 then from
    else if Fd.is_suspected t.fd (coord t ~round:r) then scan (r + 1) (tries - 1)
    else r
  in
  scan from t.params.Params.n

(* The steward launches new instances and receives stray abcast messages:
   the lowest-pid process this one does not suspect (p1 in good runs). *)
let steward t =
  let rec scan p = if p < t.params.Params.n && Fd.is_suspected t.fd p then scan (p + 1) else p in
  let s = scan 0 in
  if s >= t.params.Params.n then 0 else s

let am_steward t = steward t = t.me

let proposal s ~round ~proposer =
  List.find_map
    (fun ((r, p), v) -> if Int.equal r round && Pid.equal p proposer then Some v else None)
    s.proposals

let set_proposal s ~round ~proposer v =
  s.proposals <-
    ((round, proposer), v)
    :: List.filter
         (fun ((r, p), _) -> not (Int.equal r round && Pid.equal p proposer))
         s.proposals

let round_slot l ~round =
  List.find_map (fun (r, slot) -> if Int.equal r round then Some slot else None) l

(* The coordinator's ack slot for [round], created empty if absent. *)
let ack_slot s ~round =
  match round_slot s.acks ~round with
  | Some slot -> slot
  | None ->
    let slot = ref [] in
    s.acks <- (round, slot) :: s.acks;
    slot

let state t inst =
  match Hashtbl.find_opt t.instances inst with
  | Some s -> s
  | None ->
    let s =
      {
        inst;
        round = 1;
        estimate = None;
        ts = 0;
        proposals = [];
        acked_rounds = [];
        acks = [];
        estimates = [];
        estimate_sent = [];
        proposed_rounds = [];
        solicited_rounds = [];
        decided = None;
        decided_here_round = None;
        announced = false;
        pending_requesters = [];
        progress_timer = None;
      }
    in
    Hashtbl.add t.instances inst s;
    s

let cancel_timer t slot =
  match slot with Some timer -> Engine.cancel t.engine timer | None -> ()

let send_to_others t msg = t.broadcast msg

let delivered_mem t (m : App_msg.t) =
  Id_table.mem t.delivered ~origin:m.App_msg.id.App_msg.origin
    ~seq:m.App_msg.id.App_msg.seq

let pool_add t m = if not (delivered_mem t m) then t.pool <- Batch.add t.pool m

let pipeline_active t = t.active_acked > 0 || t.ack_imminent

(* ---- Delivery ---- *)

let adeliver_batch t batch =
  List.iter
    (fun m ->
      if not (delivered_mem t m) then begin
        Id_table.add t.delivered ~origin:m.App_msg.id.App_msg.origin
          ~seq:m.App_msg.id.App_msg.seq;
        t.delivered_count <- t.delivered_count + 1;
        Obs.bump t.obs t.c_adelivers;
        Obs.sample_since t.obs t.h_e2e_ms m.App_msg.abcast_at;
        t.on_adeliver m
      end)
    (Batch.to_list batch);
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
        Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"adeliver"
          ~detail:(Printf.sprintf "i%d (%d msgs)" t.next_deliver (Batch.size batch))
          ()
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () -> adeliver_batch t batch);
    t.next_deliver <- t.next_deliver + 1;
    drain t
  | None -> ()

(* ---- Decision & pipeline ---- *)

let choose_estimate ests =
  let better (p1, (ts1, v1)) (p2, (ts2, v2)) =
    if ts1 <> ts2 then ts1 > ts2
    else if Batch.size v1 <> Batch.size v2 then Batch.size v1 > Batch.size v2
    else p1 < p2
  in
  match ests with
  | [] -> None
  | first :: rest ->
    let _, (_, v) =
      List.fold_left (fun best e -> if better e best then e else best) first rest
    in
    Some v

let take_cap t batch =
  if Batch.size batch <= t.params.Params.batch_cap then batch
  else
    let msgs = Batch.to_list batch in
    let rec take acc k = function
      | m :: rest when k > 0 -> take (m :: acc) (k - 1) rest
      | _ -> acc
    in
    Batch.of_list (take [] t.params.Params.batch_cap msgs)

let take_own_unsent t =
  let piggyback = List.rev t.own_unsent in
  t.own_unsent <- [];
  piggyback

(* Safety net against permanent delivery holes: the merged stack's cheap
   decision dissemination (§4.3) rides the steward's follow-up proposals
   and one-shot tags, so if the steward crashes before its retransmissions
   complete, a process can keep deciding {e later} instances while an
   earlier one stays unknown forever — nothing ever re-announces it. (The
   modular stack's decision tags travel by reliable broadcast, whose
   relay step survives the origin's crash — but a message adversary can
   suppress the relays too, so both consensus variants now carry the same
   net; see {!Consensus.arm_catchup}.) While a
   decided instance sits above an undecided hole, periodically ask
   everyone for the missing values; deciders answer [Decision_full],
   undecided receivers park us in [pending_requesters]. Never fires in
   good runs. *)
let rec arm_catchup t =
  if t.catchup_timer = None && t.max_decided >= t.next_deliver then
    t.catchup_timer <-
      Some
        (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
             t.catchup_timer <- None;
             if t.max_decided >= t.next_deliver then begin
               let requested = ref 0 in
               let inst = ref t.next_deliver in
               while !inst <= t.max_decided && !requested < 64 do
                 let s = state t !inst in
                 if s.decided = None then begin
                   send_to_others t (Msg.Decision_request { inst = !inst });
                   incr requested
                 end;
                 incr inst
               done;
               arm_catchup t
             end))

let rec arm_progress_timer t s =
  cancel_timer t s.progress_timer;
  s.progress_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           if s.decided = None && (s.estimate <> None || s.acked_rounds <> []) then
             advance_round t s ~target:(next_unsuspected_round t ~from:(s.round + 1))))

and mono_decide t s value ~here_round =
  match s.decided with
  | Some _ -> ()
  | None ->
    s.decided <- Some value;
    s.decided_here_round <- here_round;
    if s.acked_rounds <> [] then t.active_acked <- t.active_acked - 1;
    cancel_timer t s.progress_timer;
    s.progress_timer <- None;
    if s.inst > t.max_decided then t.max_decided <- s.inst;
    List.iter
      (fun q -> t.send ~dst:q (Msg.Decision_full { inst = s.inst; value }))
      s.pending_requesters;
    s.pending_requesters <- [];
    L.debug (fun m -> m "%a decide i%d %a" Pid.pp t.me s.inst Batch.pp value);
    Obs.bump t.obs t.c_decisions;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"decide"
          ~detail:(Printf.sprintf "i%d r%d (%d msgs)" s.inst s.round (Batch.size value))
          ()
      else Obs.Span.no_parent
    in
    Hashtbl.replace t.decisions_buf s.inst value;
    Obs.with_span_ctx t.obs sp (fun () -> drain t);
    arm_catchup t;
    (* Idle transition: the last instance just decided and nothing else is
       running — any held own messages must reach the coordinator now. *)
    if (not (pipeline_active t)) && t.own_unsent <> [] && not (am_steward t) then begin
      let held = take_own_unsent t in
      List.iter (fun m -> t.send ~dst:(steward t) (Msg.To_coord m)) held
    end

(* Announce a decision that could not ride a follow-up proposal. *)
and announce_standalone t s =
  if not s.announced then begin
    s.announced <- true;
    match s.decided_here_round with
    | None -> ()
    | Some round ->
      if t.params.Params.mono.Params.cheap_decision then
        send_to_others t (Msg.Mono_decision_tag { inst = s.inst; round })
      else begin
        (* Ablation §4.3 off: disseminate the tag by reliable broadcast, as
           the modular stack must. *)
        match !(t.decision_rb) with
        | Some rb -> Rbcast.rbcast rb (s.inst, round)
        | None -> send_to_others t (Msg.Mono_decision_tag { inst = s.inst; round })
      end
  end

and maybe_launch t =
  let k = t.max_decided + 1 in
  if
    am_steward t && t.launched < k
    && (not (Batch.is_empty t.pool))
    && k = t.next_deliver (* all previous instances fully delivered here *)
  then begin
    let s = state t k in
    if s.decided = None && not (List.mem 1 s.proposed_rounds) then begin
      let proposal = take_cap t t.pool in
      t.pool <- Batch.diff t.pool proposal;
      t.launched <- k;
      s.proposed_rounds <- 1 :: s.proposed_rounds;
      set_proposal s ~round:1 ~proposer:t.me proposal;
      s.estimate <- Some proposal;
      s.ts <- 1;
      ack_slot s ~round:1 := [ t.me ];
      let decided =
        if k = 0 then None
        else
          let prev = state t (k - 1) in
          match prev.decided_here_round with
          | Some round
            when t.params.Params.mono.Params.combine_proposal_decision
                 && not prev.announced ->
            prev.announced <- true;
            Some (k - 1, round)
          | Some _ | None -> None
      in
      L.debug (fun m ->
          m "%a launch i%d (%d msgs%s)" Pid.pp t.me k (Batch.size proposal)
            (match decided with
            | Some (d, _) -> Printf.sprintf ", +decision i%d" d
            | None -> ""));
      let sp =
        if Obs.tracing t.obs then
          Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"propose"
            ~detail:(Printf.sprintf "i%d r1 (%d msgs)" k (Batch.size proposal))
            ()
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () ->
          send_to_others t (Msg.Prop_dec { inst = k; round = 1; proposal; decided });
          arm_progress_timer t s;
          check_majority t s ~round:1)
    end
  end

and post_decide_coordinator t s =
  (* Decided as the proposer of a round: either the decision rides the next
     proposal, or it must be announced standalone. *)
  maybe_launch t;
  if not s.announced then announce_standalone t s

and check_majority t s ~round =
  if s.decided = None && List.mem round s.proposed_rounds then
    match round_slot s.acks ~round with
    | Some slot when List.length !slot >= Params.majority t.params -> begin
      match proposal s ~round ~proposer:t.me with
      | Some value ->
        if round = 1 && t.params.Params.mono.Params.combine_proposal_decision then begin
          mono_decide t s value ~here_round:(Some round);
          post_decide_coordinator t s
        end
        else begin
          (* Recovery rounds (and the §4.1-off ablation) disseminate
             explicitly; recovery uses the full value for robustness. *)
          mono_decide t s value ~here_round:(Some round);
          if round = 1 then post_decide_coordinator t s
          else begin
            s.announced <- true;
            send_to_others t (Msg.Decision_full { inst = s.inst; value });
            maybe_launch t
          end
        end
      | None -> ()
    end
    | Some _ | None -> ()

and solicit t s ~round =
  if not (List.mem round s.solicited_rounds) then begin
    s.solicited_rounds <- round :: s.solicited_rounds;
    send_to_others t (Msg.New_round { inst = s.inst; round })
  end

and send_estimate t s ~round =
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
    t.send ~dst:(coord t ~round)
      (Msg.Mono_estimate { inst = s.inst; round; value; ts = s.ts; piggyback })
  | Some _ | None -> ()

and coordinator_estimates t s ~round =
  let received =
    match round_slot s.estimates ~round with Some slot -> !slot | None -> []
  in
  match s.estimate with
  | Some v when not (List.mem_assoc t.me received) -> (t.me, (s.ts, v)) :: received
  | _ -> received

and maybe_propose_recovery t s ~round =
  if
    s.decided = None && round >= 2
    && coord t ~round = t.me
    && not (List.mem round s.proposed_rounds)
  then begin
    let ests = coordinator_estimates t s ~round in
    if List.length ests >= Params.majority t.params then begin
      match choose_estimate ests with
      | None -> ()
      | Some value ->
        s.proposed_rounds <- round :: s.proposed_rounds;
        if round > s.round then s.round <- round;
        set_proposal s ~round ~proposer:t.me value;
        s.estimate <- Some value;
        s.ts <- round;
        ack_slot s ~round := [ t.me ];
        let sp =
          if Obs.tracing t.obs then
            Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"propose"
              ~detail:(Printf.sprintf "i%d r%d (%d msgs)" s.inst round (Batch.size value))
              ()
          else Obs.Span.no_parent
        in
        Obs.with_span_ctx t.obs sp (fun () ->
            send_to_others t (Msg.Prop_dec { inst = s.inst; round; proposal = value; decided = None });
            arm_progress_timer t s;
            check_majority t s ~round)
    end
  end

and advance_round t s ~target =
  if s.decided = None && target > s.round then begin
    L.debug (fun m ->
        m "%a advance i%d r%d->r%d" Pid.pp t.me s.inst s.round target);
    s.round <- target;
    if coord t ~round:target = t.me then begin
      maybe_propose_recovery t s ~round:target;
      if not (List.mem target s.proposed_rounds) then solicit t s ~round:target
    end
    else send_estimate t s ~round:target;
    arm_progress_timer t s
  end

(* ---- Decision tags ---- *)

let handle_decision_tag t ~inst ~round ~proposer =
  let s = state t inst in
  if s.decided = None then
    match proposal s ~round ~proposer with
    | Some value -> mono_decide t s value ~here_round:None
    | None ->
      (* Tag without the matching proposal: fetch the value from anyone who
         decided (at least the proposer, if correct). *)
      send_to_others t (Msg.Decision_request { inst })

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
  cancel_timer t t.kick_timer;
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
        Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"abcast"
          ~detail:
            (Printf.sprintf "m %d/%d" (m.App_msg.id.App_msg.origin + 1)
               m.App_msg.id.App_msg.seq)
          ()
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
          send_to_others t (Msg.To_coord m))
  end

(* ---- Receive ---- *)

let handle_prop_dec t ~src ~inst ~round ~proposal ~decided =
  (* Will this proposal be acked? Decide before processing the carried
     decision: the decision frees window slots, and those admissions must
     ride the ack we are about to send (Fig. 6's "ack + diffusion"). *)
  let will_ack =
    let s = state t inst in
    s.decided = None && round >= s.round
    && (not (Fd.is_suspected t.fd src))
    && not (List.mem round s.acked_rounds)
  in
  if will_ack then t.ack_imminent <- true;
  (match decided with
  | Some (d, dr) -> handle_decision_tag t ~inst:d ~round:dr ~proposer:src
  | None -> ());
  t.ack_imminent <- false;
  let s = state t inst in
  if s.decided <> None then begin
    match s.decided with
    | Some value when round >= s.round ->
      (* The proposer missed our decision (e.g. recovery ended first). *)
      t.send ~dst:src (Msg.Decision_full { inst; value })
    | Some _ | None -> ()
  end
  else if round >= s.round then begin
    s.round <- round;
    set_proposal s ~round ~proposer:src proposal;
    if s.estimate = None then s.estimate <- Some proposal;
    if Fd.is_suspected t.fd src then
      advance_round t s ~target:(next_unsuspected_round t ~from:(round + 1))
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
          Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"ack"
            ~detail:(Printf.sprintf "i%d r%d" inst round)
            ()
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
  let s = state t inst in
  (if s.decided = None && List.mem round s.proposed_rounds then begin
     let slot = ack_slot s ~round in
     if not (List.mem src !slot) then slot := src :: !slot;
     check_majority t s ~round
   end);
  (* New pool content may allow launching the next instance. *)
  maybe_launch t

let handle_mono_estimate t ~src ~inst ~round ~ts ~value ~piggyback =
  List.iter (fun m -> pool_add t m) piggyback;
  let s = state t inst in
  if s.decided <> None then begin
    match s.decided with
    | Some value -> t.send ~dst:src (Msg.Decision_full { inst; value })
    | None -> ()
  end
  else if round >= 2 then begin
    if round > s.round then s.round <- round;
    (match round_slot s.estimates ~round with
    | Some slot ->
      if not (List.mem_assoc src !slot) then slot := (src, (ts, value)) :: !slot
    | None -> s.estimates <- (round, ref [ (src, (ts, value)) ]) :: s.estimates);
    if coord t ~round = t.me then begin
      maybe_propose_recovery t s ~round;
      if not (List.mem round s.proposed_rounds) then solicit t s ~round
    end
  end;
  maybe_launch t

let handle_new_round t ~src ~inst ~round =
  let s = state t inst in
  match s.decided with
  | Some value -> t.send ~dst:src (Msg.Decision_full { inst; value })
  | None ->
    if round > s.round then advance_round t s ~target:round
    else if round = s.round && coord t ~round <> t.me then send_estimate t s ~round

let handle_decision_request t ~src ~inst =
  let s = state t inst in
  match s.decided with
  | Some value -> t.send ~dst:src (Msg.Decision_full { inst; value })
  | None ->
    if not (List.mem src s.pending_requesters) then
      s.pending_requesters <- src :: s.pending_requesters

let on_suspicion t suspect =
  (* Advance in instance order: the table's hash order must not decide
     which instance's round change (and its sends) is scheduled first. *)
  let affected =
    Hashtbl.fold
      (fun _ s acc ->
        if s.decided = None && (s.estimate <> None || s.acked_rounds <> []) then
          let waiting_on =
            (* The process whose silence blocks this instance: the proposer
               we acked in the current round (lowest pid when several
               proposed, so arrival order never picks), or the schedule
               coordinator. *)
            let acked_proposer =
              List.fold_left
                (fun acc ((r, p), _) -> if Int.equal r s.round then p :: acc else acc)
                [] s.proposals
              |> List.sort Pid.compare
              |> function p :: _ -> Some p | [] -> None
            in
            match acked_proposer with Some p -> p | None -> coord t ~round:s.round
          in
          if waiting_on = suspect then s :: acc else acc
        else acc)
      t.instances []
    |> List.sort (fun a b -> compare a.inst b.inst)
  in
  List.iter
    (fun s -> advance_round t s ~target:(next_unsuspected_round t ~from:(s.round + 1)))
    affected;
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
  | Msg.Decision_request { inst } -> handle_decision_request t ~src ~inst
  | Msg.Decision_full { inst; value } ->
    let s = state t inst in
    if s.decided = None then begin
      mono_decide t s value ~here_round:None;
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
      c_decisions = Obs.counter obs "abcast.decisions";
      c_abcasts = Obs.counter obs "abcast.abcasts";
      (* Instances are never removed, so the table grows with the run. It
         starts small: sized for a whole window, it would be most of what
         building a group allocates, in one block straight into the major
         heap; the doublings cost a few copies per run. *)
      instances = Hashtbl.create 256;
      delivered = Id_table.create ~n:params.Params.n;
      next_deliver = 0;
      max_decided = -1;
      launched = -1;
      pool = Batch.empty;
      own_unsent = [];
      own_outstanding = Batch.empty;
      decisions_buf = Hashtbl.create 16;
      active_acked = 0;
      ack_imminent = false;
      delivered_count = 0;
      kick_timer = None;
      catchup_timer = None;
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

let rounds_used t ~inst =
  match Hashtbl.find_opt t.instances inst with Some s -> s.round | None -> 0

(* ---- Snapshot ---- *)

module Snap = Snapshot

type ab_data = {
  ad_instances : (int * inst_state) list; (* ascending inst, timers stripped *)
  ad_delivered : Id_table.t;
  ad_next_deliver : int;
  ad_max_decided : int;
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
  let instances =
    Hashtbl.fold
      (fun k s acc -> (k, { s with progress_timer = None }) :: acc)
      t.instances []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
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
        if k < 0 then None
        else
          match Hashtbl.find_opt t.instances k with
          | Some { decided = Some b; _ } ->
            Some
              ( Printf.sprintf "decision.i%d" k,
                Snap.String (Fmt.str "%a" Batch.pp b) )
          | _ -> None)
      (List.init 8 (fun i -> t.max_decided - 7 + i))
  in
  Snap.make ~name ~version:1
    ~data:
      (Snap.pack
         {
           ad_instances = instances;
           ad_delivered = t.delivered;
           ad_next_deliver = t.next_deliver;
           ad_max_decided = t.max_decided;
           ad_launched = t.launched;
           ad_pool = t.pool;
           ad_own_unsent = t.own_unsent;
           ad_own_outstanding = t.own_outstanding;
           ad_decisions_buf = decisions_buf;
           ad_active_acked = t.active_acked;
           ad_ack_imminent = t.ack_imminent;
           ad_delivered_count = t.delivered_count;
         })
    ([
       ("next_deliver", Snap.Int t.next_deliver);
       ("max_decided", Snap.Int t.max_decided);
       ("launched", Snap.Int t.launched);
       ("delivered_count", Snap.Int t.delivered_count);
       ("active_acked", Snap.Int t.active_acked);
       ("ack_imminent", Snap.Bool t.ack_imminent);
       ("instances", Snap.Int (List.length instances));
       ("pool", Snap.Int (Batch.size t.pool));
       ("own_unsent", Snap.Int (List.length t.own_unsent));
       ("own_outstanding", Snap.Int (Batch.size t.own_outstanding));
       ("buffered_decisions", Snap.Int (List.length decisions_buf));
     ]
    @ decision_window)
