open Repro_sim
open Repro_net

module L = (val Logs.src_log Log.abcast)
module Obs = Repro_obs.Obs

type consensus_service = { propose : inst:int -> Batch.t -> unit }

(* The identity store. Identities are per-origin sequence numbers counted
   densely from 0 (the argument [Id_table] rests on), so everything this
   module knows about an identity lives in one row per origin, indexed by
   [seq]: a state byte and the payload slot. The three sets the stack
   reasons about are derived from the state bits:

   - held:    the payload is in [slots] (diffused to us, pushed, or our own);
   - ordered: named by a decision, not yet adelivered ([decided] and not
              [delivered]);
   - pending: held and never named by a decision — what [maybe_propose]
              offers. Adelivery implies a decision, so a delivered id is
              never pending. *)
let held = 1
let decided = 2
let delivered = 4

type row = {
  mutable state : Bytes.t; (* state bits per seq; 0 past the end *)
  mutable slots : App_msg.t array; (* the payload where [held] *)
  mutable low : int; (* no pending seq below this *)
  mutable top : int; (* 1 + the highest held seq *)
}

type t = {
  engine : Engine.t;
  params : Params.t;
  me : Pid.t;
  diffuse : App_msg.t -> unit;
  send : dst:Pid.t -> Msg.t -> unit;
  broadcast : Msg.t -> unit;
  consensus : consensus_service;
  on_adeliver : App_msg.t -> unit;
  obs : Obs.t;
  c_adelivers : Obs.counter;
  h_e2e_ms : Obs.histogram;
  c_abcasts : Obs.counter;
  rows : row array; (* rows.(origin) *)
  mutable pending_count : int;
  mutable next_decide : int;
  mutable proposed_up_to : int;
  decisions : (int, Batch.t) Hashtbl.t;
  mutable delivered_count : int;
  mutable fetch_timer : Engine.timer option;
}

(* An identifier travels as a zero-size message: the wire model then
   prices it at exactly the 12 identifier bytes. *)
let id_only (id : App_msg.id) =
  App_msg.make ~origin:id.App_msg.origin ~seq:id.App_msg.seq ~size:0
    ~abcast_at:Time.zero

(* Filler for the slots of payloads not held. *)
let absent = id_only { App_msg.origin = -1; seq = -1 }
let initial_row = 64

let create ~engine ~params ~me ~diffuse ~send ~broadcast ~consensus ~on_adeliver
    ?(obs = Obs.noop) () =
  {
    engine;
    params;
    me;
    diffuse;
    send;
    broadcast;
    consensus;
    on_adeliver;
    obs;
    c_adelivers = Obs.counter obs "abcast.adelivers";
    h_e2e_ms = Obs.histogram obs "abcast.e2e_ms";
    c_abcasts = Obs.counter obs "abcast.abcasts";
    rows =
      Array.init params.Params.n (fun _ ->
          {
            state = Bytes.make initial_row '\000';
            slots = Array.make initial_row absent;
            low = 0;
            top = 0;
          });
    pending_count = 0;
    next_decide = 0;
    proposed_up_to = -1;
    decisions = Hashtbl.create 16;
    delivered_count = 0;
    fetch_timer = None;
  }

let state_of row seq =
  if seq >= 0 && seq < Bytes.length row.state then Char.code (Bytes.get row.state seq)
  else 0

let state t (id : App_msg.id) = state_of t.rows.(id.App_msg.origin) id.App_msg.seq

(* The row of [id], grown (doubling, like [Id_table]) to cover its seq. *)
let row_for t (id : App_msg.id) =
  let row = t.rows.(id.App_msg.origin) and seq = id.App_msg.seq in
  let len = Bytes.length row.state in
  if seq >= len then begin
    let len' = ref (len * 2) in
    while seq >= !len' do
      len' := !len' * 2
    done;
    let state = Bytes.make !len' '\000' and slots = Array.make !len' absent in
    Bytes.blit row.state 0 state 0 len;
    Array.blit row.slots 0 slots 0 len;
    row.state <- state;
    row.slots <- slots
  end;
  row

let set row seq bit =
  Bytes.set row.state seq (Char.chr (Char.code (Bytes.get row.state seq) lor bit))

let is_pending s = s land (held lor decided) = held

(* The first [batch_cap] pending ids in (origin, seq) order. Each row is
   walked from its low-water mark, which moves up to the first pending
   seq so the next walk skips what was decided meanwhile. *)
let maybe_propose t =
  if t.proposed_up_to < t.next_decide && t.pending_count > 0 then begin
    let cap = t.params.Params.batch_cap in
    let batch = ref Batch.empty and count = ref 0 in
    Array.iter
      (fun row ->
        let seq = ref row.low in
        while !seq < row.top && not (is_pending (state_of row !seq)) do
          incr seq
        done;
        row.low <- !seq;
        while !count < cap && !seq < row.top do
          if is_pending (state_of row !seq) then begin
            batch := Batch.add !batch (id_only row.slots.(!seq).App_msg.id);
            incr count
          end;
          incr seq
        done)
      t.rows;
    let count = !count in
    t.proposed_up_to <- t.next_decide;
    L.debug (fun m ->
        m "%a propose instance %d (%d ids, indirect)" Pid.pp t.me t.next_decide count);
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"propose"
          ~detail:(Obs.Span.detail2 "i" t.next_decide " (" count " ids)")
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () -> t.consensus.propose ~inst:t.next_decide !batch)
  end

let holds t id = state t id land held <> 0
let delivered_mem t id = state t id land delivered <> 0

(* The ids of [batch] whose payload is not held, in batch order. A
   delivered id is held: its payload was in the slot when delivered. *)
let missing_payloads t batch =
  let missing = ref [] in
  Batch.iter (fun (m : App_msg.t) -> if not (holds t m.id) then missing := m.id :: !missing) batch;
  List.rev !missing

let cancel_fetch t =
  match t.fetch_timer with
  | Some timer ->
    Engine.cancel t.engine timer;
    t.fetch_timer <- None
  | None -> ()

let rec arm_fetch t ids =
  cancel_fetch t;
  (* Grace period: the diffusion is usually just in flight. Ask everyone if
     it does not show up, and keep asking — the request or the answer may
     race a crash. If every process holding a decided payload is faulty,
     delivery blocks (consistently, at every correct process): the same
     hazard class as the §3.3 plain-channel optimization; [12] avoids it by
     diffusing reliably before proposing. *)
  t.fetch_timer <-
    Some
      (Engine.schedule_after t.engine (Time.span_ms 20) (fun () ->
           t.fetch_timer <- None;
           let still_missing = List.filter (fun id -> not (holds t id)) ids in
           if still_missing <> [] then begin
             L.debug (fun m ->
                 m "%a fetch %d missing payloads" Pid.pp t.me (List.length still_missing));
             t.broadcast (Msg.Payload_request { ids = still_missing });
             arm_fetch t still_missing
           end))

let adeliver_batch t batch =
  Batch.iter
    (fun (m : App_msg.t) ->
      let row = t.rows.(m.id.App_msg.origin) and seq = m.id.App_msg.seq in
      let s = state_of row seq in
      if s land delivered = 0 then begin
        (* The caller checked [missing_payloads] first. *)
        assert (s land held <> 0);
        set row seq delivered;
        let payload = row.slots.(seq) in
        t.delivered_count <- t.delivered_count + 1;
        Obs.bump t.obs t.c_adelivers;
        Obs.sample_since t.obs t.h_e2e_ms payload.App_msg.abcast_at;
        t.on_adeliver payload
      end)
    batch

let rec drain t =
  match Hashtbl.find_opt t.decisions t.next_decide with
  | None -> ()
  | Some batch -> (
    match missing_payloads t batch with
    | [] ->
      Hashtbl.remove t.decisions t.next_decide;
      cancel_fetch t;
      L.debug (fun m ->
          m "%a adeliver instance %d (%d msgs, indirect)" Pid.pp t.me t.next_decide
            (Batch.size batch));
      let sp =
        if Obs.tracing t.obs then
          Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"adeliver"
            ~detail:(Obs.Span.detail2 "i" t.next_decide " (" (Batch.size batch) " msgs)")
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () -> adeliver_batch t batch);
      t.next_decide <- t.next_decide + 1;
      drain t
    | missing -> if t.fetch_timer = None then arm_fetch t missing)

let note_payload t (m : App_msg.t) =
  if not (holds t m.id) then begin
    let row = row_for t m.id and seq = m.id.App_msg.seq in
    row.slots.(seq) <- m;
    set row seq held;
    if seq >= row.top then row.top <- seq + 1;
    if is_pending (state_of row seq) then begin
      t.pending_count <- t.pending_count + 1;
      if seq < row.low then row.low <- seq
    end;
    (* A blocked decision may now be complete. *)
    drain t;
    maybe_propose t
  end

let abcast t m =
  if not (delivered_mem t m.App_msg.id) then begin
    Obs.bump t.obs t.c_abcasts;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Abcast ~phase:"abcast"
          ~detail:
            (Obs.Span.detail2 "m " (m.App_msg.id.App_msg.origin + 1) "/"
               m.App_msg.id.App_msg.seq "")
      else Obs.Span.no_parent
    in
    (* Diffuse strictly before [note_payload], whose embedded
       [maybe_propose] may put the identifier into a consensus proposal.
       Channels are FIFO per link, so any process that sees a proposal
       naming this id has already received the payload copy sent here —
       otherwise a sender crashing between proposing and diffusing leaves
       a decided identifier whose payload died with it, blocking every
       correct process (the §3.3 hazard; [12] diffuses before proposing
       for exactly this reason). *)
    Obs.with_span_ctx t.obs sp (fun () ->
        t.diffuse m;
        note_payload t m;
        maybe_propose t)
  end

let on_diffuse t m = note_payload t m

let on_payload_request t ~src ids =
  List.iter
    (fun (id : App_msg.id) ->
      if holds t id then
        t.send ~dst:src (Msg.Payload_push t.rows.(id.App_msg.origin).slots.(id.App_msg.seq)))
    ids

let on_payload_push t m = note_payload t m

let on_decide t ~inst batch =
  if inst >= t.next_decide && not (Hashtbl.mem t.decisions inst) then begin
    Hashtbl.replace t.decisions inst batch;
    (* The decided identifiers are ordered now; never re-propose them. *)
    Batch.iter
      (fun (m : App_msg.t) ->
        let row = row_for t m.id and seq = m.id.App_msg.seq in
        if is_pending (state_of row seq) then t.pending_count <- t.pending_count - 1;
        set row seq decided)
      batch;
    drain t;
    maybe_propose t
  end

let next_instance t = t.next_decide
let delivered_count t = t.delivered_count

(* ---- Snapshot ---- *)

module Snap = Repro_sim.Snapshot

type ab_row = {
  ar_state : Bytes.t; (* the row's state bits *)
  ar_payloads : App_msg.t list; (* held payloads, ascending seq *)
  ar_low : int;
  ar_top : int;
}

type ab_data = {
  ad_rows : ab_row array; (* by origin *)
  ad_pending_count : int;
  ad_next_decide : int;
  ad_proposed_up_to : int;
  ad_decisions : (int * Batch.t) list; (* ascending inst *)
  ad_delivered_count : int;
}

let snapshot ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "core.abcast_indirect.p%d" (t.me + 1)
  in
  let known = ref 0 and ordered = ref 0 in
  let rows =
    Array.map
      (fun row ->
        let payloads = ref [] in
        for seq = Bytes.length row.state - 1 downto 0 do
          let s = state_of row seq in
          if s land held <> 0 then begin
            incr known;
            payloads := row.slots.(seq) :: !payloads
          end;
          if s land (decided lor delivered) = decided then incr ordered
        done;
        {
          ar_state = row.state;
          ar_payloads = !payloads;
          ar_low = row.low;
          ar_top = row.top;
        })
      t.rows
  in
  let decisions =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.decisions []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Snap.make ~name ~version:2
    ~data:
      (Snap.pack
         {
           ad_rows = rows;
           ad_pending_count = t.pending_count;
           ad_next_decide = t.next_decide;
           ad_proposed_up_to = t.proposed_up_to;
           ad_decisions = decisions;
           ad_delivered_count = t.delivered_count;
         })
    [
      ("next_decide", Snap.Int t.next_decide);
      ("proposed_up_to", Snap.Int t.proposed_up_to);
      ("delivered_count", Snap.Int t.delivered_count);
      ("known_payloads", Snap.Int !known);
      ("pending_ids", Snap.Int t.pending_count);
      ("ordered_ids", Snap.Int !ordered);
      ("buffered_decisions", Snap.Int (List.length decisions));
    ]
