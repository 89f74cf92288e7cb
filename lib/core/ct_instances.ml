open Repro_sim
open Repro_net
open Repro_fd
module Obs = Repro_obs.Obs

type 'x inst = {
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
  mutable progress_timer : Engine.timer option;
  mutable ext : 'x;
}

type 'x t = {
  engine : Engine.t;
  params : Params.t;
  me : Pid.t;
  fd : Fd.t;
  send : dst:Pid.t -> Msg.t -> unit;
  broadcast : Msg.t -> unit;
  log : (module Logs.LOG);
  first_round : int;
  first_ext : 'x;
  obs : Obs.t;
  layer : Obs.layer;
  c_decisions : Obs.counter;
  h_decide_ms : Obs.histogram option;
  instances : (int, 'x inst) Hashtbl.t; (* live: created, not yet decided *)
  (* The decision log, indexed by instance: the batch each instance
     decided and the round it decided in, -1 for a hole. A decided
     instance leaves [instances] for good, so a run keeps two words per
     decision plus the batch instead of its whole round state. *)
  mutable decisions : Batch.t array;
  mutable decided_rounds : int array;
  mutable logged : int;
  mutable logged_max_round : int;
  mutable max_decided : int;
  mutable catchup_from : int; (* lowest instance not known decided *)
  mutable catchup_timer : Engine.timer option;
}

let create ~engine ~params ~me ~fd ~send ~broadcast ~log ~first_round ~first_ext ~obs ~layer
    ~decisions ~decide_ms =
  {
    engine;
    params;
    me;
    fd;
    send;
    broadcast;
    log;
    first_round;
    first_ext;
    obs;
    layer;
    c_decisions = decisions;
    h_decide_ms = decide_ms;
    (* Only the pipeline's undecided instances stay in the table; a
       decided one moves to the log. *)
    instances = Hashtbl.create 16;
    decisions = [||];
    decided_rounds = [||];
    logged = 0;
    logged_max_round = 0;
    max_decided = -1;
    catchup_from = 0;
    catchup_timer = None;
  }

(* ---- Rounds ---- *)

let coord c ~round = Params.coordinator c.params ~round

(* The first round >= [from] whose coordinator this process does not
   currently suspect; if it suspects all n coordinators (FD gone wild),
   fall back to [from] and let the round structure sort it out. *)
let next_unsuspected_round c ~from =
  let rec scan r tries =
    if tries = 0 then from
    else if Fd.is_suspected c.fd (coord c ~round:r) then scan (r + 1) (tries - 1)
    else r
  in
  scan from c.params.Params.n

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

let add_ack s ~round ~src =
  let slot = ack_slot s ~round in
  if not (List.mem src !slot) then slot := src :: !slot

let has_ack_majority c s ~round =
  match round_slot s.acks ~round with
  | Some slot -> List.length !slot >= Params.majority c.params
  | None -> false

let record_estimate s ~round ~src ~ts ~value =
  match round_slot s.estimates ~round with
  | Some slot -> if not (List.mem_assoc src !slot) then slot := (src, (ts, value)) :: !slot
  | None -> s.estimates <- (round, ref [ (src, (ts, value)) ]) :: s.estimates

let estimates_for s ~round =
  match round_slot s.estimates ~round with Some slot -> !slot | None -> []

let coordinator_estimates c s ~round =
  let received = estimates_for s ~round in
  match s.estimate with
  | Some v when not (List.mem_assoc c.me received) -> (c.me, (s.ts, v)) :: received
  | _ -> received

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

let own_proposal c s ~round value =
  s.proposed_rounds <- round :: s.proposed_rounds;
  set_proposal s ~round ~proposer:c.me value;
  s.estimate <- Some value;
  s.ts <- round;
  ack_slot s ~round := [ c.me ]

let solicit c s ~round =
  if not (List.mem round s.solicited_rounds) then begin
    s.solicited_rounds <- round :: s.solicited_rounds;
    let module L = (val c.log) in
    L.debug (fun m -> m "%a solicit i%d r%d" Pid.pp c.me s.inst round);
    c.broadcast (Msg.New_round { inst = s.inst; round })
  end

(* ---- The instance table and the decision log ---- *)

let is_logged c inst =
  inst >= 0 && inst < Array.length c.decided_rounds && c.decided_rounds.(inst) >= 0

(* Move a just-decided instance from the table to the log. Instances are
   numbered from 0, so the log is dense; it doubles as it fills. The log
   lives as long as the run, so its first block is already too large for
   the minor heap (256 words): it is made in the major heap rather than
   copied there, and the small early doublings are skipped. *)
let retire c s value =
  Hashtbl.remove c.instances s.inst;
  let len = Array.length c.decisions in
  if s.inst >= len then begin
    let cap = ref (max 257 (2 * len)) in
    while s.inst >= !cap do
      cap := 2 * !cap
    done;
    let decisions = Array.make !cap Batch.empty and rounds = Array.make !cap (-1) in
    Array.blit c.decisions 0 decisions 0 len;
    Array.blit c.decided_rounds 0 rounds 0 len;
    c.decisions <- decisions;
    c.decided_rounds <- rounds
  end;
  c.decisions.(s.inst) <- value;
  c.decided_rounds.(s.inst) <- s.round;
  c.logged <- c.logged + 1;
  if s.round > c.logged_max_round then c.logged_max_round <- s.round

(* [Hashtbl.find] rather than [find_opt]: this runs for every protocol
   message, and an option per lookup is garbage. Callers check the log
   first: a logged instance is never re-created. *)
let state c inst =
  match Hashtbl.find c.instances inst with
  | s -> s
  | exception Not_found ->
    let s =
      {
        inst;
        created_at = Engine.now c.engine;
        round = c.first_round;
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
        progress_timer = None;
        ext = c.first_ext;
      }
    in
    Hashtbl.add c.instances inst s;
    s

(* Instance order, so the table's hash order never decides which
   instance's round change (and its sends) is scheduled first. *)
let select c p =
  Hashtbl.fold (fun _ s acc -> if p s then s :: acc else acc) c.instances []
  |> List.sort (fun a b -> Int.compare a.inst b.inst)

(* A live instance is undecided, so only the log knows decisions. *)
let decision c ~inst = if is_logged c inst then Some c.decisions.(inst) else None

let rounds_used c ~inst =
  if is_logged c inst then c.decided_rounds.(inst)
  else
    match Hashtbl.find_opt c.instances inst with
    | Some s -> s.round
    | None -> 0

let logged_round c inst = c.decided_rounds.(inst)
let live c = Hashtbl.length c.instances
let max_decided c = c.max_decided

(* ---- Decisions ---- *)

let cancel c slot = match slot with Some timer -> Engine.cancel c.engine timer | None -> ()

(* Safety net against permanent decision holes. A decision can be lost
   for good on its way to one process: the monolithic stack's cheap
   dissemination (§4.3) rides the steward's follow-up proposals and
   one-shot tags, which die with a crashed steward; the modular stack's
   reliable broadcast survives a crashed origin through its relay step,
   but a message adversary can suppress every copy bound for one process,
   relays included. Either way a decided instance can sit above an
   instance nobody will ever re-announce. While that is the case,
   periodically broadcast [Decision_request] for the holes (at most 64
   per tick); decided peers answer [Decision_full], undecided ones park
   us in [pending_requesters]. Never armed while decisions arrive in
   order, i.e. never in good runs. *)
let rec arm_catchup c =
  while c.catchup_from <= c.max_decided && is_logged c c.catchup_from do
    c.catchup_from <- c.catchup_from + 1
  done;
  if c.catchup_timer = None && c.catchup_from <= c.max_decided then
    c.catchup_timer <-
      Some
        (Engine.schedule_after c.engine c.params.Params.round1_kick (fun () ->
             c.catchup_timer <- None;
             let requested = ref 0 in
             let inst = ref c.catchup_from in
             while !inst <= c.max_decided && !requested < 64 do
               if not (is_logged c !inst) then begin
                 c.broadcast (Msg.Decision_request { inst = !inst });
                 incr requested
               end;
               incr inst
             done;
             arm_catchup c))

let decide c s value ~deliver =
  s.decided <- Some value;
  retire c s value;
  cancel c s.progress_timer;
  s.progress_timer <- None;
  if s.inst > c.max_decided then c.max_decided <- s.inst;
  List.iter
    (fun q -> c.send ~dst:q (Msg.Decision_full { inst = s.inst; value }))
    s.pending_requesters;
  s.pending_requesters <- [];
  let module L = (val c.log) in
  L.debug (fun m -> m "%a decide i%d %a" Pid.pp c.me s.inst Batch.pp value);
  Obs.bump c.obs c.c_decisions;
  (match c.h_decide_ms with Some h -> Obs.sample_since c.obs h s.created_at | None -> ());
  let sp =
    if Obs.tracing c.obs then
      Obs.span c.obs ~parent:(Obs.span_ctx c.obs) ~pid:c.me ~layer:c.layer ~phase:"decide"
        ~detail:(Obs.Span.detail3 "i" s.inst " r" s.round " (" (Batch.size value) " msgs)")
    else Obs.Span.no_parent
  in
  Obs.with_span_ctx c.obs sp deliver;
  arm_catchup c

let announced_value c s ~round ~proposer ~value =
  match value with
  | Some _ -> value
  | None -> begin
    match proposal s ~round ~proposer with
    | Some _ as stored -> stored
    | None ->
      (* The announcement reached us but the proposal did not (possible
         only if its proposer crashed): fetch the value explicitly. *)
      c.broadcast (Msg.Decision_request { inst = s.inst });
      None
  end

let reply_decision c ~inst ~dst =
  if is_logged c inst then c.send ~dst (Msg.Decision_full { inst; value = c.decisions.(inst) })

let answer_request c ~inst ~src =
  if is_logged c inst then reply_decision c ~inst ~dst:src
  else
    let s = state c inst in
    if not (List.mem src s.pending_requesters) then
      s.pending_requesters <- src :: s.pending_requesters

(* ---- Snapshot ---- *)

type ('x, 'e) data = {
  cd_instances : (int * 'x inst) list; (* live, ascending inst, timers stripped *)
  cd_decisions : Batch.t array; (* instances 0 .. max_decided *)
  cd_decided_rounds : int array;
  cd_max_decided : int;
  cd_catchup_from : int;
  cd_engine : 'e;
}

let snapshot ~name ~strip ?(fields = []) engine_data c =
  let live_insts =
    Hashtbl.fold
      (fun k s acc -> (k, { s with progress_timer = None; ext = strip s.ext }) :: acc)
      c.instances []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let max_round =
    List.fold_left (fun acc (_, s) -> max acc s.round) c.logged_max_round live_insts
  in
  let logged_len = c.max_decided + 1 in
  Snapshot.make ~name ~version:3
    ~data:
      (Snapshot.pack
         {
           cd_instances = live_insts;
           cd_decisions = Array.sub c.decisions 0 logged_len;
           cd_decided_rounds = Array.sub c.decided_rounds 0 logged_len;
           cd_max_decided = c.max_decided;
           cd_catchup_from = c.catchup_from;
           cd_engine = engine_data;
         })
    ([
       ("instances", Snapshot.Int (live c + c.logged));
       ("decided", Snapshot.Int c.logged);
       ("max_decided", Snapshot.Int c.max_decided);
       ("catchup_from", Snapshot.Int c.catchup_from);
       ("max_round", Snapshot.Int max_round);
     ]
    @ fields)
