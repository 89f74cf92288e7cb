open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs

type inst_state = {
  inst : int;
  created_at : Time.t;
  mutable round : int;
  mutable estimate : Batch.t option;
  mutable ts : int;
  mutable started : bool;
  (* Per-round association lists, newest first (a good run uses one). *)
  mutable proposals : ((int * Pid.t) * Batch.t) list;
  mutable acked_rounds : int list; (* rounds answered with ack OR nack *)
  mutable acks : (int * Pid.t list ref) list;
  mutable estimates : (int * (Pid.t * (int * Batch.t)) list ref) list;
  mutable proposed_rounds : int list;
  mutable decided : Batch.t option;
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
  rbcast_decision : inst:int -> round:int -> value:Batch.t option -> unit;
  on_decide : inst:int -> Batch.t -> unit;
  obs : Obs.t;
  c_decisions : Obs.counter;
  h_decide_ms : Obs.histogram;
  c_proposals : Obs.counter;
  c_estimates : Obs.counter;
  c_acks : Obs.counter;
  instances : (int, inst_state) Hashtbl.t;
  mutable max_decided : int;
  mutable catchup_from : int; (* lowest instance not known decided *)
  mutable catchup_timer : Engine.timer option;
}

let coord t ~round = Params.coordinator t.params ~round

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

let ack_slot s ~round =
  match round_slot s.acks ~round with
  | Some slot -> slot
  | None ->
    let slot = ref [] in
    s.acks <- (round, slot) :: s.acks;
    slot

let next_unsuspected_round t ~from =
  let rec scan r tries =
    if tries = 0 then from
    else if Fd.is_suspected t.fd (coord t ~round:r) then scan (r + 1) (tries - 1)
    else r
  in
  scan from t.params.Params.n

let state t inst =
  match Hashtbl.find_opt t.instances inst with
  | Some s -> s
  | None ->
    let s =
      {
        inst;
        created_at = Engine.now t.engine;
        round = 0; (* becomes 1 on the first [enter_round] *)
        estimate = None;
        ts = 0;
        started = false;
        proposals = [];
        acked_rounds = [];
        acks = [];
        estimates = [];
        proposed_rounds = [];
        decided = None;
        pending_requesters = [];
        progress_timer = None;
      }
    in
    Hashtbl.add t.instances inst s;
    s

let cancel_timer t slot =
  match slot with Some timer -> Engine.cancel t.engine timer | None -> ()

(* Safety net against permanent decision holes — same mechanism and
   rationale as {!Consensus.arm_catchup}: a message adversary can
   suppress every copy of a decision bound for one process, relays
   included, leaving a decided instance above a hole nobody will
   re-announce. Never armed while decisions arrive in order. *)
let rec arm_catchup t =
  let decided_at inst =
    match Hashtbl.find_opt t.instances inst with
    | Some s -> s.decided <> None
    | None -> false
  in
  while t.catchup_from <= t.max_decided && decided_at t.catchup_from do
    t.catchup_from <- t.catchup_from + 1
  done;
  if t.catchup_timer = None && t.catchup_from <= t.max_decided then
    t.catchup_timer <-
      Some
        (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
             t.catchup_timer <- None;
             let requested = ref 0 in
             let inst = ref t.catchup_from in
             while !inst <= t.max_decided && !requested < 64 do
               if not (decided_at !inst) then begin
                 t.broadcast (Msg.Decision_request { inst = !inst });
                 incr requested
               end;
               incr inst
             done;
             arm_catchup t))

let decide t s value =
  match s.decided with
  | Some _ -> ()
  | None ->
    s.decided <- Some value;
    cancel_timer t s.progress_timer;
    s.progress_timer <- None;
    List.iter
      (fun q -> t.send ~dst:q (Msg.Decision_full { inst = s.inst; value }))
      s.pending_requesters;
    s.pending_requesters <- [];
    Obs.bump t.obs t.c_decisions;
    Obs.sample_since t.obs t.h_decide_ms s.created_at;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~pid:t.me ~layer:`Consensus ~phase:"decide"
          ~detail:(Printf.sprintf "i%d r%d (%d msgs)" s.inst s.round (Batch.size value))
          ()
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () -> t.on_decide ~inst:s.inst value);
    if s.inst > t.max_decided then t.max_decided <- s.inst;
    arm_catchup t

let reply_decision t s ~dst =
  match s.decided with
  | Some value -> t.send ~dst (Msg.Decision_full { inst = s.inst; value })
  | None -> ()

let record_estimate s ~round ~src ~ts ~value =
  match round_slot s.estimates ~round with
  | Some slot -> if not (List.mem_assoc src !slot) then slot := (src, (ts, value)) :: !slot
  | None -> s.estimates <- (round, ref [ (src, (ts, value)) ]) :: s.estimates

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

(* Phase 2: the round's coordinator proposes once it holds a majority of
   estimates (its own included). *)
let rec try_propose t s ~round =
  if
    s.decided = None
    && coord t ~round = t.me
    && not (List.mem round s.proposed_rounds)
  then begin
    let ests =
      match round_slot s.estimates ~round with Some slot -> !slot | None -> []
    in
    if List.length ests >= Params.majority t.params then
      match choose_estimate ests with
      | None -> ()
      | Some value ->
        s.proposed_rounds <- round :: s.proposed_rounds;
        set_proposal s ~round ~proposer:t.me value;
        s.estimate <- Some value;
        s.ts <- round;
        ack_slot s ~round := [ t.me ];
        Obs.bump t.obs t.c_proposals;
        let sp =
          if Obs.tracing t.obs then
            Obs.span t.obs ~pid:t.me ~layer:`Consensus ~phase:"propose"
              ~detail:(Printf.sprintf "i%d r%d (%d msgs)" s.inst round (Batch.size value))
              ()
          else Obs.Span.no_parent
        in
        Obs.with_span_ctx t.obs sp (fun () ->
            t.broadcast (Msg.Propose { inst = s.inst; round; value });
            check_majority t s ~round)
  end

and check_majority t s ~round =
  if s.decided = None && List.mem round s.proposed_rounds then
    match round_slot s.acks ~round with
    | Some slot when List.length !slot >= Params.majority t.params -> begin
      match proposal s ~round ~proposer:t.me with
      | Some value ->
        (* Classical: the full decided value is reliably broadcast; the
           local decision arrives through the rbcast local delivery. *)
        t.rbcast_decision ~inst:s.inst ~round ~value:(Some value)
      | None -> ()
    end
    | Some _ | None -> ()

(* Phase 1: enter a round and send the estimate to its coordinator. *)
and enter_round t s ~round =
  if s.decided = None && round > s.round then begin
    let round = next_unsuspected_round t ~from:round in
    s.round <- round;
    if s.estimate = None then s.estimate <- Some Batch.empty;
    (match s.estimate with
    | Some value ->
      let c = coord t ~round in
      record_estimate s ~round ~src:t.me ~ts:s.ts ~value;
      if c <> t.me then begin
        Obs.bump t.obs t.c_estimates;
        let sp =
          if Obs.tracing t.obs then
            Obs.span t.obs ~pid:t.me ~layer:`Consensus ~phase:"estimate"
              ~detail:(Printf.sprintf "i%d r%d" s.inst round)
              ()
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
and nack_and_advance t s =
  if s.decided = None && s.round >= 1 && not (List.mem s.round s.acked_rounds) then begin
    s.acked_rounds <- s.round :: s.acked_rounds;
    t.send ~dst:(coord t ~round:s.round) (Msg.Nack { inst = s.inst; round = s.round });
    enter_round t s ~round:(s.round + 1)
  end

and arm_progress_timer t s =
  cancel_timer t s.progress_timer;
  s.progress_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           if s.decided = None && (s.started || s.estimate <> None) then
             if List.mem s.round s.acked_rounds then enter_round t s ~round:(s.round + 1)
             else nack_and_advance t s))

(* ---- Entry points ---- *)

let propose t ~inst value =
  let s = state t inst in
  if s.decided = None && not s.started then begin
    s.started <- true;
    if s.estimate = None then s.estimate <- Some value;
    if s.round = 0 then enter_round t s ~round:1
  end

let handle_estimate t s ~src ~round ~ts ~value =
  if s.decided <> None then reply_decision t s ~dst:src
  else begin
    record_estimate s ~round ~src ~ts ~value;
    (* Participation: an estimate reveals a running instance. *)
    if s.estimate = None then s.estimate <- Some value;
    if s.round = 0 then enter_round t s ~round:1;
    if coord t ~round = t.me then try_propose t s ~round
  end

let handle_propose t s ~src ~round ~value =
  if s.decided <> None then reply_decision t s ~dst:src
  else if src = coord t ~round && not (List.mem round s.acked_rounds) && round >= s.round
  then begin
    if s.round = 0 then s.round <- round;
    if round > s.round then s.round <- round;
    set_proposal s ~round ~proposer:src value;
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
          Obs.span t.obs ~pid:t.me ~layer:`Consensus ~phase:"ack"
            ~detail:(Printf.sprintf "i%d r%d" s.inst round)
            ()
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () ->
          t.send ~dst:src (Msg.Ack { inst = s.inst; round }));
      (* Classical cycling: the next round starts immediately. *)
      enter_round t s ~round:(round + 1)
    end
  end

let handle_ack t s ~src ~round =
  if s.decided = None && coord t ~round = t.me then begin
    let slot = ack_slot s ~round in
    if not (List.mem src !slot) then slot := src :: !slot;
    check_majority t s ~round
  end

let handle_decision_request t s ~src =
  match s.decided with
  | Some value -> t.send ~dst:src (Msg.Decision_full { inst = s.inst; value })
  | None ->
    if not (List.mem src s.pending_requesters) then
      s.pending_requesters <- src :: s.pending_requesters

let on_suspicion t suspect =
  (* Advance in instance order: the table's hash order must not decide
     which instance's nack (and round change) is scheduled first. *)
  Hashtbl.fold
    (fun _ s acc ->
      if
        s.decided = None && s.round >= 1
        && coord t ~round:s.round = suspect
        && not (List.mem s.round s.acked_rounds)
      then s :: acc
      else acc)
    t.instances []
  |> List.sort (fun a b -> compare a.inst b.inst)
  |> List.iter (fun s -> nack_and_advance t s)

let receive t ~src msg =
  match msg with
  | Msg.Estimate { inst; round; value; ts } ->
    handle_estimate t (state t inst) ~src ~round ~ts ~value
  | Msg.Propose { inst; round; value } ->
    handle_propose t (state t inst) ~src ~round ~value
  | Msg.Ack { inst; round } -> handle_ack t (state t inst) ~src ~round
  | Msg.Nack _ ->
    (* In the event-driven rendering the coordinator never blocks on a
       majority of replies, so a nack needs no action; it exists to match
       the classical protocol's message pattern. *)
    ()
  | Msg.Decision_request { inst } -> handle_decision_request t (state t inst) ~src
  | Msg.Decision_full { inst; value } ->
    let s = state t inst in
    if s.decided = None then decide t s value
  | Msg.New_round { inst; round } ->
    (* Solicitations are an optimized-variant mechanism; treat as a hint to
       catch up. *)
    let s = state t inst in
    if s.decided = None && round > s.round then enter_round t s ~round
  | Msg.Heartbeat | Msg.Diffuse _ | Msg.Decision_tag _ | Msg.Prop_dec _ | Msg.Ack_diff _
  | Msg.Mono_estimate _ | Msg.Mono_decision_tag _ | Msg.To_coord _
  | Msg.Payload_request _ | Msg.Payload_push _ ->
    ()

let rb_deliver t ~proposer ~inst ~round ~value =
  let s = state t inst in
  if s.decided = None then
    match value with
    | Some v -> decide t s v
    | None -> begin
      match proposal s ~round ~proposer with
      | Some v -> decide t s v
      | None -> t.broadcast (Msg.Decision_request { inst })
    end

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
      c_decisions = Obs.counter obs "consensus.decisions";
      h_decide_ms = Obs.histogram obs "consensus.decide_ms";
      c_proposals = Obs.counter obs "consensus.proposals";
      c_estimates = Obs.counter obs "consensus.estimates";
      c_acks = Obs.counter obs "consensus.acks";
      (* Instances are never removed, so the table grows with the run. It
         starts small: sized for a whole window, it would be most of what
         building a group allocates, in one block straight into the major
         heap; the doublings cost a few copies per run. *)
      instances = Hashtbl.create 256;
      max_decided = -1;
      catchup_from = 0;
      catchup_timer = None;
    }
  in
  Fd.on_suspect fd (fun suspect -> on_suspicion t suspect);
  t

let decision t ~inst =
  match Hashtbl.find_opt t.instances inst with Some s -> s.decided | None -> None

let rounds_used t ~inst =
  match Hashtbl.find_opt t.instances inst with Some s -> s.round | None -> 0

(* ---- Snapshot ---- *)

module Snap = Snapshot

type cons_data = {
  cd_instances : (int * inst_state) list; (* ascending inst, timers stripped *)
  cd_max_decided : int;
  cd_catchup_from : int;
}

let snapshot ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "core.consensus_classic.p%d" (t.me + 1)
  in
  let insts =
    Hashtbl.fold
      (fun k s acc -> (k, { s with progress_timer = None }) :: acc)
      t.instances []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let decided =
    List.fold_left (fun acc (_, s) -> if s.decided <> None then acc + 1 else acc) 0 insts
  in
  let max_round = List.fold_left (fun acc (_, s) -> max acc s.round) 0 insts in
  Snap.make ~name ~version:1
    ~data:(Snap.pack { cd_instances = insts; cd_max_decided = t.max_decided;
                       cd_catchup_from = t.catchup_from })
    [
      ("instances", Snap.Int (List.length insts));
      ("decided", Snap.Int decided);
      ("max_decided", Snap.Int t.max_decided);
      ("catchup_from", Snap.Int t.catchup_from);
      ("max_round", Snap.Int max_round);
    ]
