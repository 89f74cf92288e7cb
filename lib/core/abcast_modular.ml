module L = (val Logs.src_log Log.abcast)
module Obs = Repro_obs.Obs

type consensus_service = { propose : inst:int -> Batch.t -> unit }

type t = {
  params : Params.t;
  me : Repro_net.Pid.t;
  diffuse : App_msg.t -> unit;
  consensus : consensus_service;
  on_adeliver : App_msg.t -> unit;
  obs : Obs.t;
  delivered : Id_table.t;
  mutable pending : Batch.t;
  mutable next_decide : int; (* next instance to adeliver *)
  mutable proposed_up_to : int; (* highest instance proposed locally *)
  decisions : (int, Batch.t) Hashtbl.t; (* buffered out-of-order decisions *)
  mutable delivered_count : int;
}

let create ~params ~me ~diffuse ~consensus ~on_adeliver ?(obs = Obs.noop) () =
  {
    params;
    me;
    diffuse;
    consensus;
    on_adeliver;
    obs;
    delivered = Id_table.create ~n:params.Params.n;
    pending = Batch.empty;
    next_decide = 0;
    proposed_up_to = -1;
    decisions = Hashtbl.create 16;
    delivered_count = 0;
  }

(* Propose the pending batch for the next undecided instance — at most one
   outstanding proposal, renewed as soon as the previous instance decides
   (the Fig. 5 pipeline). *)
let maybe_propose t =
  if t.proposed_up_to < t.next_decide && not (Batch.is_empty t.pending) then begin
    let batch =
      (* Common case: everything pending fits under the cap, and the
         proposal is the pending batch itself — no list round-trip. *)
      if Batch.size t.pending <= t.params.Params.batch_cap then t.pending
      else
        let msgs = Batch.to_list t.pending in
        let rec take acc k = function
          | m :: rest when k > 0 -> take (m :: acc) (k - 1) rest
          | _ -> acc
        in
        Batch.of_list (take [] t.params.Params.batch_cap msgs)
    in
    t.proposed_up_to <- t.next_decide;
    L.debug (fun m ->
        m "%a propose instance %d (%d msgs, %d pending)" Repro_net.Pid.pp t.me
          t.next_decide (Batch.size batch) (Batch.size t.pending));
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"propose"
          ~detail:(Printf.sprintf "i%d (%d msgs)" t.next_decide (Batch.size batch))
          ()
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () -> t.consensus.propose ~inst:t.next_decide batch)
  end

let adeliver_batch t batch =
  List.iter
    (fun m ->
      (* Integrity guard: a message appears in the total order once. *)
      let id = m.App_msg.id in
      if not (Id_table.mem t.delivered ~origin:id.App_msg.origin ~seq:id.App_msg.seq)
      then begin
        Id_table.add t.delivered ~origin:id.App_msg.origin ~seq:id.App_msg.seq;
        t.delivered_count <- t.delivered_count + 1;
        Obs.incr t.obs "abcast.adelivers";
        if Obs.enabled t.obs then
          Obs.observe_since t.obs "abcast.e2e_ms" m.App_msg.abcast_at;
        t.on_adeliver m
      end)
    (Batch.to_list batch);
  t.pending <- Batch.diff t.pending batch

let rec drain t =
  match Hashtbl.find_opt t.decisions t.next_decide with
  | Some batch ->
    Hashtbl.remove t.decisions t.next_decide;
    L.debug (fun m ->
        m "%a adeliver instance %d (%d msgs)" Repro_net.Pid.pp t.me t.next_decide
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
  | None -> ()

let delivered_mem t (m : App_msg.t) =
  Id_table.mem t.delivered ~origin:m.App_msg.id.App_msg.origin
    ~seq:m.App_msg.id.App_msg.seq

let abcast t m =
  if not (delivered_mem t m) then begin
    t.pending <- Batch.add t.pending m;
    Obs.incr t.obs "abcast.abcasts";
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~pid:t.me ~layer:`Abcast ~phase:"abcast"
          ~detail:(Printf.sprintf "m %d/%d" (m.App_msg.id.App_msg.origin + 1) m.App_msg.id.App_msg.seq)
          ()
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () ->
        t.diffuse m;
        maybe_propose t)
  end

let on_diffuse t m =
  if not (delivered_mem t m) then begin
    t.pending <- Batch.add t.pending m;
    maybe_propose t
  end

let on_decide t ~inst batch =
  if inst >= t.next_decide && not (Hashtbl.mem t.decisions inst) then begin
    Hashtbl.replace t.decisions inst batch;
    drain t;
    maybe_propose t
  end

let next_instance t = t.next_decide
let delivered_count t = t.delivered_count

(* ---- Snapshot ---- *)

module Snap = Repro_sim.Snapshot

type ab_data = {
  ad_pending : Batch.t;
  ad_delivered : Id_table.t;
  ad_next_decide : int;
  ad_proposed_up_to : int;
  ad_decisions : (int * Batch.t) list; (* ascending inst *)
  ad_delivered_count : int;
}

let snapshot ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "core.abcast_modular.p%d" (t.me + 1)
  in
  let decisions =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.decisions []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Snap.make ~name ~version:1
    ~data:
      (Snap.pack
         {
           ad_pending = t.pending;
           ad_delivered = t.delivered;
           ad_next_decide = t.next_decide;
           ad_proposed_up_to = t.proposed_up_to;
           ad_decisions = decisions;
           ad_delivered_count = t.delivered_count;
         })
    [
      ("next_decide", Snap.Int t.next_decide);
      ("proposed_up_to", Snap.Int t.proposed_up_to);
      ("delivered_count", Snap.Int t.delivered_count);
      ("pending", Snap.Int (Batch.size t.pending));
      ("buffered_decisions", Snap.Int (List.length decisions));
    ]

let restore ?name t s =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "core.abcast_modular.p%d" (t.me + 1)
  in
  Snap.check s ~name ~version:1;
  let (d : ab_data) = Snap.unpack_data s in
  t.pending <- d.ad_pending;
  Id_table.assign ~from:d.ad_delivered t.delivered;
  t.next_decide <- d.ad_next_decide;
  t.proposed_up_to <- d.ad_proposed_up_to;
  Hashtbl.reset t.decisions;
  List.iter (fun (k, v) -> Hashtbl.add t.decisions k v) d.ad_decisions;
  t.delivered_count <- d.ad_delivered_count
