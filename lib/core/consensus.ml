open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs

module L = (val Logs.src_log Log.consensus)

type inst_state = {
  inst : int;
  created_at : Time.t; (* first local activity, for the decide-latency histogram *)
  mutable round : int;
  mutable estimate : Batch.t option;
  mutable ts : int; (* round of last adoption; 0 = initial value, never adopted *)
  mutable started : bool; (* propose () was called locally *)
  (* The per-round tables are association lists, newest first: a good run
     uses one round, so a hash table per instance would be mostly empty. *)
  mutable proposals : ((int * Pid.t) * Batch.t) list; (* (round, proposer) -> value *)
  mutable acked_rounds : int list;
  mutable acks : (int * Pid.t list ref) list; (* coordinator side, per round *)
  mutable estimates : (int * (Pid.t * (int * Batch.t)) list ref) list;
  mutable estimate_sent : int list; (* rounds for which my estimate went out *)
  mutable proposed_rounds : int list; (* rounds I proposed as coordinator *)
  mutable solicited_rounds : int list; (* rounds I broadcast New_round for *)
  mutable decided : Batch.t option;
  mutable pending_requesters : Pid.t list;
  mutable kick_timer : Engine.timer option;
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

(* The coordinator's ack slot for [round], created empty if absent. *)
let ack_slot s ~round =
  match round_slot s.acks ~round with
  | Some slot -> slot
  | None ->
    let slot = ref [] in
    s.acks <- (round, slot) :: s.acks;
    slot

(* The first round >= [from] whose coordinator this process does not
   currently suspect; if it suspects all n coordinators (FD gone wild),
   fall back to [from] and let the round structure sort it out. *)
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
        round = 1;
        estimate = None;
        ts = 0;
        started = false;
        proposals = [];
        acked_rounds = [];
        acks = [];
        estimates = [];
        estimate_sent = [];
        proposed_rounds = [];
        solicited_rounds = [];
        decided = None;
        pending_requesters = [];
        kick_timer = None;
        progress_timer = None;
      }
    in
    Hashtbl.add t.instances inst s;
    s

let cancel_timer t slot =
  match slot with Some timer -> Engine.cancel t.engine timer | None -> ()

let send_to_others t msg = t.broadcast msg

(* Safety net against permanent decision holes, mirroring the monolithic
   stack's catch-up: the decision's reliable broadcast survives a crashed
   origin through its relay step, but under a message adversary every
   copy bound for one process can be suppressed — the relay multicasts
   are each subject to the per-broadcast drop budget too — so a decided
   instance can sit above an instance nobody will ever re-announce.
   While that is the case, periodically broadcast [Decision_request] for
   the holes; decided peers answer [Decision_full], undecided ones park
   us in [pending_requesters]. Never armed while decisions arrive in
   order, i.e. never in good runs. *)
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
    cancel_timer t s.kick_timer;
    cancel_timer t s.progress_timer;
    s.kick_timer <- None;
    s.progress_timer <- None;
    List.iter
      (fun q -> t.send ~dst:q (Msg.Decision_full { inst = s.inst; value }))
      s.pending_requesters;
    s.pending_requesters <- [];
    L.debug (fun m ->
        m "%a decide i%d %a" Pid.pp t.me s.inst Batch.pp value);
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

(* ---- Round progression ---- *)

let estimates_for s ~round =
  match round_slot s.estimates ~round with Some slot -> !slot | None -> []

(* Deterministic choice among a majority of estimates: maximum lock
   timestamp, then larger batch (so undelivered messages are not dropped
   needlessly), then lowest pid. *)
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

let rec arm_progress_timer t s =
  cancel_timer t s.progress_timer;
  s.progress_timer <-
    Some
      (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
           if s.decided = None && (s.started || s.estimate <> None) then
             advance_round t s ~target:(next_unsuspected_round t ~from:(s.round + 1))))

(* Coordinator-side: record an estimate for [round] keyed by pid. Our own
   estimate participates without a message. *)
and coordinator_estimates t s ~round =
  let received = estimates_for s ~round in
  match s.estimate with
  | Some v when not (List.mem_assoc t.me received) -> (t.me, (s.ts, v)) :: received
  | _ -> received

and value_for_round t s ~round =
  if round = 1 then s.estimate
  else
    let ests = coordinator_estimates t s ~round in
    if List.length ests >= Params.majority t.params then choose_estimate ests else None

and maybe_propose t s ~round =
  if
    s.decided = None
    && coord t ~round = t.me
    && not (List.mem round s.proposed_rounds)
  then
    match value_for_round t s ~round with
    | None -> ()
    | Some value ->
      s.proposed_rounds <- round :: s.proposed_rounds;
      if round > s.round then s.round <- round;
      set_proposal s ~round ~proposer:t.me value;
      s.estimate <- Some value;
      s.ts <- round;
      ack_slot s ~round := [ t.me ];
      L.debug (fun m ->
          m "%a propose i%d r%d (%d msgs)" Pid.pp t.me s.inst round (Batch.size value));
      Obs.bump t.obs t.c_proposals;
      let sp =
        if Obs.tracing t.obs then
          Obs.span t.obs ~pid:t.me ~layer:`Consensus ~phase:"propose"
            ~detail:(Printf.sprintf "i%d r%d (%d msgs)" s.inst round (Batch.size value))
            ()
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () ->
          send_to_others t (Msg.Propose { inst = s.inst; round; value });
          arm_progress_timer t s;
          check_majority t s ~round)

and check_majority t s ~round =
  if s.decided = None && coord t ~round = t.me then
    match round_slot s.acks ~round with
    | Some slot when List.length !slot >= Params.majority t.params -> begin
      match proposal s ~round ~proposer:t.me with
      | Some value ->
        let carried =
          if t.params.Params.modular.Params.decision_tag_only then None else Some value
        in
        (* Local decision arrives through the rbcast service's local
           delivery, so the coordinator and everyone else share one path. *)
        t.rbcast_decision ~inst:s.inst ~round ~value:carried
      | None -> ()
    end
    | Some _ | None -> ()

and solicit t s ~round =
  if not (List.mem round s.solicited_rounds) then begin
    s.solicited_rounds <- round :: s.solicited_rounds;
    L.debug (fun m -> m "%a solicit i%d r%d" Pid.pp t.me s.inst round);
    send_to_others t (Msg.New_round { inst = s.inst; round })
  end

and send_estimate t s ~round =
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
        Obs.span t.obs ~pid:t.me ~layer:`Consensus ~phase:"estimate"
          ~detail:(Printf.sprintf "i%d r%d" s.inst round)
          ()
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () ->
        t.send ~dst:(coord t ~round)
          (Msg.Estimate { inst = s.inst; round; value; ts = s.ts }))
  | Some _ | None -> ()

and advance_round t s ~target =
  if s.decided = None && target > s.round then begin
    L.debug (fun m ->
        m "%a advance i%d r%d->r%d (coord %a)" Pid.pp t.me s.inst s.round target Pid.pp
          (coord t ~round:target));
    s.round <- target;
    cancel_timer t s.kick_timer;
    s.kick_timer <- None;
    if coord t ~round:target = t.me then begin
      maybe_propose t s ~round:target;
      if not (List.mem target s.proposed_rounds) then solicit t s ~round:target
    end
    else send_estimate t s ~round:target;
    arm_progress_timer t s
  end

(* ---- §3.3 kick: a non-coordinator that proposed but hears nothing wakes
   the round-1 coordinator with its estimate. ---- *)

let arm_kick t s =
  if s.kick_timer = None then
    s.kick_timer <-
      Some
        (Engine.schedule_after t.engine t.params.Params.round1_kick (fun () ->
             if s.decided = None && s.round = 1 && s.acked_rounds = [] then
               match s.estimate with
               | Some value ->
                 t.send ~dst:(coord t ~round:1)
                   (Msg.Estimate { inst = s.inst; round = 1; value; ts = s.ts })
               | None -> ()))

(* ---- Suspicion ---- *)

let on_suspicion t suspect =
  (* Advance in instance order: the table's hash order must not decide
     which instance's round change (and its sends) is scheduled first. *)
  let affected =
    Hashtbl.fold
      (fun _ s acc ->
        if s.decided = None && (s.started || s.estimate <> None)
           && coord t ~round:s.round = suspect
        then s :: acc
        else acc)
      t.instances []
    |> List.sort (fun a b -> compare a.inst b.inst)
  in
  List.iter
    (fun s -> advance_round t s ~target:(next_unsuspected_round t ~from:(s.round + 1)))
    affected

(* ---- Public entry points ---- *)

let propose t ~inst value =
  let s = state t inst in
  if s.decided = None && not s.started then begin
    s.started <- true;
    if s.estimate = None then s.estimate <- Some value;
    let c1 = coord t ~round:1 in
    if s.round = 1 then begin
      if c1 = t.me then maybe_propose t s ~round:1
      else if Fd.is_suspected t.fd c1 then
        advance_round t s ~target:(next_unsuspected_round t ~from:2)
      else arm_kick t s
    end;
    arm_progress_timer t s
  end

let handle_propose t s ~src ~round ~value =
  if s.decided <> None then reply_decision t s ~dst:src
  else if src = coord t ~round && round >= s.round then begin
    s.round <- round;
    cancel_timer t s.kick_timer;
    s.kick_timer <- None;
    set_proposal s ~round ~proposer:src value;
    if s.estimate = None then s.estimate <- Some value;
    if Fd.is_suspected t.fd src then
      advance_round t s ~target:(next_unsuspected_round t ~from:(round + 1))
    else if not (List.mem round s.acked_rounds) then begin
      s.acked_rounds <- round :: s.acked_rounds;
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
      arm_progress_timer t s
    end
  end

let handle_ack t s ~src ~round =
  (* A late ack (after the decision) needs no reply: the decision's
     reliable broadcast reaches the acker anyway. *)
  if s.decided = None && coord t ~round = t.me then begin
    let slot = ack_slot s ~round in
    if not (List.mem src !slot) then slot := src :: !slot;
    check_majority t s ~round
  end

let handle_estimate t s ~src ~round ~ts ~value =
  if s.decided <> None then reply_decision t s ~dst:src
  else if round = 1 then begin
    (* §3.3 kick: adopt the value if we have none, and propose if we are
       the (possibly idle) round-1 coordinator. *)
    if coord t ~round:1 = t.me then begin
      if s.estimate = None then s.estimate <- Some value;
      maybe_propose t s ~round:1
    end
  end
  else begin
    let previous_round = s.round in
    if round > s.round then s.round <- round;
    (match round_slot s.estimates ~round with
    | Some slot ->
      if not (List.mem_assoc src !slot) then slot := (src, (ts, value)) :: !slot
    | None -> s.estimates <- (round, ref [ (src, (ts, value)) ]) :: s.estimates);
    if s.estimate = None then s.estimate <- Some value;
    if coord t ~round = t.me then begin
      maybe_propose t s ~round;
      if not (List.mem round s.proposed_rounds) then solicit t s ~round
    end
    else if round > previous_round then send_estimate t s ~round
  end

let handle_new_round t s ~src ~round =
  if s.decided <> None then reply_decision t s ~dst:src
  else if round > s.round then advance_round t s ~target:round
  else if round = s.round && coord t ~round <> t.me then send_estimate t s ~round

let handle_decision_request t s ~src =
  match s.decided with
  | Some value -> t.send ~dst:src (Msg.Decision_full { inst = s.inst; value })
  | None ->
    if not (List.mem src s.pending_requesters) then
      s.pending_requesters <- src :: s.pending_requesters

let receive t ~src msg =
  match msg with
  | Msg.Propose { inst; round; value } ->
    handle_propose t (state t inst) ~src ~round ~value
  | Msg.Ack { inst; round } -> handle_ack t (state t inst) ~src ~round
  | Msg.Estimate { inst; round; value; ts } ->
    handle_estimate t (state t inst) ~src ~round ~ts ~value
  | Msg.New_round { inst; round } -> handle_new_round t (state t inst) ~src ~round
  | Msg.Decision_request { inst } -> handle_decision_request t (state t inst) ~src
  | Msg.Decision_full { inst; value } ->
    let s = state t inst in
    if s.decided = None then decide t s value
  | Msg.Heartbeat | Msg.Diffuse _ | Msg.Nack _ | Msg.Decision_tag _ | Msg.Prop_dec _
  | Msg.Ack_diff _ | Msg.Mono_estimate _ | Msg.Mono_decision_tag _ | Msg.To_coord _
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
      | None ->
        (* §3.2: the tag reached us but the proposal did not (possible only
           if the coordinator crashed) — fetch the value explicitly. *)
        send_to_others t (Msg.Decision_request { inst })
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
    | None -> Printf.sprintf "core.consensus.p%d" (t.me + 1)
  in
  let insts =
    Hashtbl.fold
      (fun k s acc -> (k, { s with kick_timer = None; progress_timer = None }) :: acc)
      t.instances []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let decided =
    List.fold_left (fun acc (_, s) -> if s.decided <> None then acc + 1 else acc) 0 insts
  in
  let max_round =
    List.fold_left (fun acc (_, s) -> max acc s.round) 0 insts
  in
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
