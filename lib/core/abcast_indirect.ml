open Repro_sim
open Repro_net

module L = (val Logs.src_log Log.abcast)
module Obs = Repro_obs.Obs

type consensus_service = { propose : inst:int -> Batch.t -> unit }

module Id_tbl = Hashtbl.Make (struct
  type t = App_msg.id

  let equal = App_msg.equal_id
  let hash (id : App_msg.id) = Hashtbl.hash (id.App_msg.origin, id.App_msg.seq)
end)

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
  payloads : App_msg.t Id_tbl.t; (* everything diffused to us, incl. own *)
  delivered : Id_table.t;
  mutable pending : App_msg.Id_set.t; (* ids known but not yet ordered *)
  mutable ordered : App_msg.Id_set.t; (* ids in buffered decisions, undelivered *)
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
    payloads = Id_tbl.create 1024;
    delivered = Id_table.create ~n:params.Params.n;
    pending = App_msg.Id_set.empty;
    ordered = App_msg.Id_set.empty;
    next_decide = 0;
    proposed_up_to = -1;
    decisions = Hashtbl.create 16;
    delivered_count = 0;
    fetch_timer = None;
  }

let maybe_propose t =
  if t.proposed_up_to < t.next_decide && not (App_msg.Id_set.is_empty t.pending) then begin
    let ids =
      App_msg.Id_set.elements t.pending
      |> List.filteri (fun i _ -> i < t.params.Params.batch_cap)
    in
    t.proposed_up_to <- t.next_decide;
    L.debug (fun m ->
        m "%a propose instance %d (%d ids, indirect)" Pid.pp t.me t.next_decide
          (List.length ids));
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"propose"
          ~detail:(Printf.sprintf "i%d (%d ids)" t.next_decide (List.length ids))
          ()
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () ->
        t.consensus.propose ~inst:t.next_decide (Batch.of_list (List.map id_only ids)))
  end

let delivered_mem t (id : App_msg.id) =
  Id_table.mem t.delivered ~origin:id.App_msg.origin ~seq:id.App_msg.seq

let missing_payloads t batch =
  List.filter_map
    (fun (m : App_msg.t) ->
      if Id_tbl.mem t.payloads m.id || delivered_mem t m.id then None else Some m.id)
    (Batch.to_list batch)

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
           let still_missing =
             List.filter (fun id -> not (Id_tbl.mem t.payloads id)) ids
           in
           if still_missing <> [] then begin
             L.debug (fun m ->
                 m "%a fetch %d missing payloads" Pid.pp t.me (List.length still_missing));
             t.broadcast (Msg.Payload_request { ids = still_missing });
             arm_fetch t still_missing
           end))

let adeliver_batch t batch =
  List.iter
    (fun (m : App_msg.t) ->
      if not (delivered_mem t m.id) then begin
        match Id_tbl.find_opt t.payloads m.id with
        | Some payload ->
          Id_table.add t.delivered ~origin:m.id.App_msg.origin
            ~seq:m.id.App_msg.seq;
          t.ordered <- App_msg.Id_set.remove m.id t.ordered;
          t.delivered_count <- t.delivered_count + 1;
          Obs.bump t.obs t.c_adelivers;
          Obs.sample_since t.obs t.h_e2e_ms payload.App_msg.abcast_at;
          t.on_adeliver payload
        | None ->
          (* Unreachable: the caller checked [missing_payloads] first. *)
          assert false
      end)
    (Batch.to_list batch);
  t.pending <-
    App_msg.Id_set.filter (fun id -> not (delivered_mem t id)) t.pending

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
          Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"adeliver"
            ~detail:(Printf.sprintf "i%d (%d msgs)" t.next_decide (Batch.size batch))
            ()
        else Obs.Span.no_parent
      in
      Obs.with_span_ctx t.obs sp (fun () -> adeliver_batch t batch);
      t.next_decide <- t.next_decide + 1;
      drain t
    | missing -> if t.fetch_timer = None then arm_fetch t missing)

let note_payload t (m : App_msg.t) =
  if not (Id_tbl.mem t.payloads m.id) then begin
    Id_tbl.replace t.payloads m.id m;
    if (not (delivered_mem t m.id)) && not (App_msg.Id_set.mem m.id t.ordered)
    then t.pending <- App_msg.Id_set.add m.id t.pending;
    (* A blocked decision may now be complete. *)
    drain t;
    maybe_propose t
  end

let abcast t m =
  if not (delivered_mem t m.App_msg.id) then begin
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
    (fun id ->
      match Id_tbl.find_opt t.payloads id with
      | Some m -> t.send ~dst:src (Msg.Payload_push m)
      | None -> ())
    ids

let on_payload_push t m = note_payload t m

let on_decide t ~inst batch =
  if inst >= t.next_decide && not (Hashtbl.mem t.decisions inst) then begin
    Hashtbl.replace t.decisions inst batch;
    (* The decided identifiers are ordered now; never re-propose them. *)
    List.iter
      (fun (m : App_msg.t) ->
        t.pending <- App_msg.Id_set.remove m.id t.pending;
        if not (delivered_mem t m.id) then
          t.ordered <- App_msg.Id_set.add m.id t.ordered)
      (Batch.to_list batch);
    drain t;
    maybe_propose t
  end

let next_instance t = t.next_decide
let delivered_count t = t.delivered_count

(* ---- Snapshot ---- *)

module Snap = Repro_sim.Snapshot

type ab_data = {
  ad_payloads : (App_msg.id * App_msg.t) list; (* ascending identity *)
  ad_delivered : Id_table.t;
  ad_pending : App_msg.Id_set.t;
  ad_ordered : App_msg.Id_set.t;
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
  let payloads =
    Id_tbl.fold (fun id m acc -> (id, m) :: acc) t.payloads []
    |> List.sort (fun (a, _) (b, _) -> App_msg.compare_id a b)
  in
  let decisions =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.decisions []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Snap.make ~name ~version:1
    ~data:
      (Snap.pack
         {
           ad_payloads = payloads;
           ad_delivered = t.delivered;
           ad_pending = t.pending;
           ad_ordered = t.ordered;
           ad_next_decide = t.next_decide;
           ad_proposed_up_to = t.proposed_up_to;
           ad_decisions = decisions;
           ad_delivered_count = t.delivered_count;
         })
    [
      ("next_decide", Snap.Int t.next_decide);
      ("proposed_up_to", Snap.Int t.proposed_up_to);
      ("delivered_count", Snap.Int t.delivered_count);
      ("known_payloads", Snap.Int (List.length payloads));
      ("pending_ids", Snap.Int (App_msg.Id_set.cardinal t.pending));
      ("ordered_ids", Snap.Int (App_msg.Id_set.cardinal t.ordered));
      ("buffered_decisions", Snap.Int (List.length decisions));
    ]
