open Repro_sim
open Repro_net
open Repro_fd
open Repro_framework
module Obs = Repro_obs.Obs

type kind = Modular | Monolithic | Indirect

type fd_mode =
  [ `Good_run
  | `Heartbeat of Heartbeat_fd.config ]

(* The consensus service as mounted in the modular stack: either the
   optimized or the classical Chandra-Toueg variant, behind one face. *)
type consensus_impl = {
  c_propose : inst:int -> Batch.t -> unit;
  c_receive : src:Pid.t -> Msg.t -> unit;
  c_rb_deliver : proposer:Pid.t -> inst:int -> round:int -> value:Batch.t option -> unit;
  c_snapshot : unit -> Snapshot.section;
}

(* The abcast module of a composed stack: reduction (§3.3) or indirect
   consensus, behind one face. *)
type abcast_impl = {
  a_abcast : App_msg.t -> unit;
  a_on_decide : inst:int -> Batch.t -> unit;
  a_on_diffuse : App_msg.t -> unit;
  a_direct : src:Pid.t -> Msg.t -> unit; (* payload traffic, off the bus *)
  a_next_instance : unit -> int;
  a_snapshot : unit -> Snapshot.section;
}

type stack_impl =
  | Composed_stack of {
      abcast : abcast_impl;
      consensus : consensus_impl;
      rbcast : (int * int * Batch.t option) Rbcast.t;
      port_net_abcast : App_msg.t Event_bus.port;
      port_net_consensus : (Pid.t * Msg.t) Event_bus.port;
      port_net_rbcast : (Pid.t * Msg.rb_meta * (int * int * Batch.t option)) Event_bus.port;
    }
  | Monolithic_stack of {
      mono : Abcast_monolithic.t;
      port_net : (Pid.t * Msg.t) Event_bus.port;
    }

type t = {
  me : Pid.t;
  kind : kind;
  params : Params.t;
  net : Wire_msg.t Network.t;
  stack : Stack.t;
  flow : Flow_control.t;
  offers : int Queue.t; (* sizes of not-yet-admitted abcast offers *)
  mutable next_seq : int;
  mutable offered : int;
  mutable admitted : int;
  mutable delivered_count : int;
  mutable rev_deliveries : App_msg.id list;
  record_deliveries : bool;
  on_adeliver : App_msg.t -> unit;
  obs : Obs.t;
  mutable heartbeat : Heartbeat_fd.t option;
  mutable rchannel : Msg.t Rchannel.t option;
  mutable crashed : bool;
  mutable impl : stack_impl option; (* set once at the end of [create] *)
}

let me t = t.me
let kind t = t.kind
let offered t = t.offered
let admitted t = t.admitted
let delivered_count t = t.delivered_count

let instances_decided t =
  match t.impl with
  | Some (Composed_stack s) -> s.abcast.a_next_instance ()
  | Some (Monolithic_stack s) -> Abcast_monolithic.decided_instances s.mono
  | None -> 0

let deliveries t = List.rev t.rev_deliveries
let queued_offers t = Queue.length t.offers
let stack t = t.stack

let engine t = Network.engine t.net

let handle_adeliver t m =
  t.delivered_count <- t.delivered_count + 1;
  if t.record_deliveries then t.rev_deliveries <- m.App_msg.id :: t.rev_deliveries;
  (* The App/adeliver span is the chain terminus the critical-path
     analysis looks for: one per delivered message, parented to the
     instance adeliver that released it. *)
  let sp =
    if Obs.tracing t.obs then
      Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`App ~phase:"adeliver"
        ~detail:
          (Obs.Span.detail2 "m " (m.App_msg.id.App_msg.origin + 1) "/"
             m.App_msg.id.App_msg.seq "")
    else Obs.Span.no_parent
  in
  Obs.with_span_ctx t.obs sp (fun () ->
      if Pid.equal m.App_msg.id.App_msg.origin t.me then Flow_control.release t.flow;
      t.on_adeliver m)

let stack_abcast t m =
  match t.impl with
  | Some (Composed_stack s) -> s.abcast.a_abcast m
  | Some (Monolithic_stack s) -> Abcast_monolithic.abcast s.mono m
  | None -> assert false

let rec admit_offers t =
  if (not t.crashed) && (not (Queue.is_empty t.offers)) && Flow_control.has_room t.flow
  then begin
    let size = Queue.pop t.offers in
    Flow_control.acquire t.flow;
    let m =
      App_msg.make ~origin:t.me ~seq:t.next_seq ~size ~abcast_at:(Engine.now (engine t))
    in
    t.next_seq <- t.next_seq + 1;
    t.admitted <- t.admitted + 1;
    (* Root (in an idle system) of the message's causal chain; when the
       admission was unblocked by a delivery freeing a window slot, the
       chain truthfully extends that delivery's. *)
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`App ~phase:"publish"
          ~detail:(Obs.Span.detail3 "m " (t.me + 1) "/" m.App_msg.id.App_msg.seq " (" size " B)")
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () -> stack_abcast t m);
    admit_offers t
  end

let abcast t ~size =
  if not t.crashed then begin
    t.offered <- t.offered + 1;
    Queue.push size t.offers;
    admit_offers t
  end

let crash t =
  t.crashed <- true;
  Queue.clear t.offers;
  (match t.heartbeat with Some hb -> Heartbeat_fd.stop hb | None -> ());
  (match t.rchannel with Some ch -> Rchannel.halt ch | None -> ());
  Network.crash t.net t.me

(* ---- Wiring ---- *)

let create ~kind ~params ~net ~me ?(fd_mode = `Good_run) ?(record_deliveries = true)
    ?(on_adeliver = ignore) ?(on_tamper = fun ~detected:_ -> ()) ?(obs = Obs.noop) () =
  let cpu = Network.cpu net me in
  let stack = Stack.create ~cpu ~dispatch_cost:params.Params.dispatch_cost in
  let t =
    {
      me;
      kind;
      params;
      net;
      stack;
      flow = Flow_control.create ~window:params.Params.window;
      offers = Queue.create ();
      next_seq = 0;
      offered = 0;
      admitted = 0;
      delivered_count = 0;
      rev_deliveries = [];
      record_deliveries;
      on_adeliver;
      obs;
      heartbeat = None;
      rchannel = None;
      crashed = false;
      impl = None;
    }
  in
  Flow_control.set_on_space t.flow (fun () -> admit_offers t);
  (* Protocol messages travel either directly over the quasi-reliable
     network or through a reliable channel rebuilt over lossy links,
     depending on the configured transport. [deliver_ref] is the
     demultiplexer into the mounted stack, installed below once the stack
     exists. *)
  let deliver_ref = ref (fun ~src:_ (_ : Msg.t) -> ()) in
  let send, broadcast =
    match params.Params.transport with
    | Params.Tcp_like ->
      ( (fun ~dst msg -> Network.send net ~src:me ~dst (Wire_msg.Plain msg)),
        fun msg -> Network.send_to_others net ~src:me (Wire_msg.Plain msg) )
    | Params.Lossy _ ->
      let channel =
        Rchannel.create (engine t) ~me ~n:params.Params.n
          ~send_raw:(fun ~dst frame ->
            Network.send net ~src:me ~dst (Wire_msg.Frame frame))
          ~deliver:(fun ~src msg -> !deliver_ref ~src msg)
          ~obs ()
      in
      t.rchannel <- Some channel;
      ( (fun ~dst msg -> Rchannel.send channel ~dst msg),
        fun msg ->
          List.iter
            (fun dst -> Rchannel.send channel ~dst msg)
            (Pid.others ~n:params.Params.n me) )
  in
  let fd =
    match fd_mode with
    | `Good_run -> Fd.never_suspects
    | `Heartbeat config ->
      (* Heartbeats bypass the reliable channel: a retransmitted stale
         heartbeat carries no information, and detectors are loss-tolerant
         by construction. *)
      let raw_heartbeat ~dst =
        Network.send net ~src:me ~dst (Wire_msg.Plain Msg.Heartbeat)
      in
      let hb =
        Heartbeat_fd.create (engine t) config ~n:params.Params.n ~me
          ~send_heartbeat:raw_heartbeat
      in
      t.heartbeat <- Some hb;
      Heartbeat_fd.fd hb
  in
  let bus = Stack.bus stack in
  (* The consensus module of a composed stack, in the configured variant. *)
  let make_consensus ~rbcast_decision ~on_decide =
    match params.Params.modular.Params.consensus_variant with
    | Params.Ct_optimized ->
      let c =
        Consensus.create ~engine:(engine t) ~params ~me ~fd ~send ~broadcast
          ~rbcast_decision ~on_decide ~obs ()
      in
      {
        c_propose = (fun ~inst value -> Consensus.propose c ~inst value);
        c_receive = (fun ~src msg -> Consensus.receive c ~src msg);
        c_rb_deliver =
          (fun ~proposer ~inst ~round ~value ->
            Consensus.rb_deliver c ~proposer ~inst ~round ~value);
        c_snapshot = (fun () -> Consensus.snapshot c);
      }
    | Params.Ct_classic ->
      let c =
        Consensus_classic.create ~engine:(engine t) ~params ~me ~fd ~send ~broadcast
          ~rbcast_decision ~on_decide ~obs ()
      in
      {
        c_propose = (fun ~inst value -> Consensus_classic.propose c ~inst value);
        c_receive = (fun ~src msg -> Consensus_classic.receive c ~src msg);
        c_rb_deliver =
          (fun ~proposer ~inst ~round ~value ->
            Consensus_classic.rb_deliver c ~proposer ~inst ~round ~value);
        c_snapshot = (fun () -> Consensus_classic.snapshot c);
      }
  in
  (* A composed stack: abcast over consensus over rbcast, three mounted
     modules whose every crossing is an event-bus emission, charged the
     dispatch cost. The abcast module names its own three ports. *)
  let composed ~layers ~propose_port ~decide_port ~net_port ~make_abcast =
    List.iter
      (fun (name, description) -> Stack.mount stack { Stack.name; description })
      layers;
    let port_propose = Event_bus.port bus propose_port in
    let port_decide = Event_bus.port bus decide_port in
    let port_rbcast = Event_bus.port bus "consensus->rbcast.rbcast" in
    let port_rdeliver = Event_bus.port bus "rbcast->consensus.rdeliver" in
    let port_net_abcast = Event_bus.port bus net_port in
    let port_net_consensus = Event_bus.port bus "net->consensus" in
    let port_net_rbcast = Event_bus.port bus "net->rbcast" in
    let rbcast =
      Rbcast.create ~me ~n:params.Params.n
        ~variant:params.Params.modular.Params.rbcast_variant
        ~broadcast:(fun ~meta (inst, round, value) ->
          broadcast (Msg.Decision_tag { meta; inst; round; value }))
        ~deliver:(fun ~meta payload -> Event_bus.emit port_rdeliver (meta, payload))
        ~obs ()
    in
    let consensus =
      make_consensus
        ~rbcast_decision:(fun ~inst ~round ~value ->
          Event_bus.emit port_rbcast (inst, round, value))
        ~on_decide:(fun ~inst value -> Event_bus.emit port_decide (inst, value))
    in
    let abcast =
      make_abcast ~propose:(fun ~inst value -> Event_bus.emit port_propose (inst, value))
    in
    Event_bus.subscribe port_propose (fun (inst, value) -> consensus.c_propose ~inst value);
    Event_bus.subscribe port_decide (fun (inst, value) -> abcast.a_on_decide ~inst value);
    Event_bus.subscribe port_rbcast (fun payload -> Rbcast.rbcast rbcast payload);
    Event_bus.subscribe port_rdeliver (fun (meta, (inst, round, value)) ->
        consensus.c_rb_deliver ~proposer:meta.Msg.rb_origin ~inst ~round ~value);
    Event_bus.subscribe port_net_abcast abcast.a_on_diffuse;
    Event_bus.subscribe port_net_consensus (fun (src, msg) -> consensus.c_receive ~src msg);
    Event_bus.subscribe port_net_rbcast (fun (src, meta, payload) ->
        Rbcast.receive rbcast ~src ~meta payload);
    Composed_stack
      { abcast; consensus; rbcast; port_net_abcast; port_net_consensus; port_net_rbcast }
  in
  let diffuse m = broadcast (Msg.Diffuse m) in
  let on_adeliver m = handle_adeliver t m in
  let impl =
    match kind with
    | Monolithic ->
      Stack.mount stack
        {
          Stack.name = "ABcast+";
          description = "monolithic atomic broadcast (consensus and rbcast merged, \xc2\xa74)";
        };
      let mono =
        Abcast_monolithic.create ~engine:(engine t) ~params ~me ~fd ~send ~broadcast
          ~on_adeliver ~obs ()
      in
      let port_net = Event_bus.port bus "net->abcast+" in
      Event_bus.subscribe port_net (fun (src, msg) ->
          Abcast_monolithic.receive mono ~src msg);
      Monolithic_stack { mono; port_net }
    | Modular ->
      composed
        ~layers:
          [
            ("ABcast", "atomic broadcast by reduction (\xc2\xa73.3)");
            ("Consensus", "optimized Chandra-Toueg (\xc2\xa73.2)");
            ("RBcast", "reliable broadcast (\xc2\xa73.1)");
          ]
        ~propose_port:"abcast->consensus.propose" ~decide_port:"consensus->abcast.decide"
        ~net_port:"net->abcast"
        ~make_abcast:(fun ~propose ->
          let a =
            Abcast_modular.create ~params ~me ~diffuse
              ~consensus:{ Abcast_modular.propose } ~on_adeliver ~obs ()
          in
          {
            a_abcast = Abcast_modular.abcast a;
            a_on_decide = Abcast_modular.on_decide a;
            a_on_diffuse = Abcast_modular.on_diffuse a;
            a_direct = (fun ~src:_ _ -> ());
            a_next_instance = (fun () -> Abcast_modular.next_instance a);
            a_snapshot = (fun () -> Abcast_modular.snapshot a);
          })
    | Indirect ->
      composed
        ~layers:
          [
            ("ABcast-I", "atomic broadcast by indirect consensus (related work [12])");
            ("Consensus", "orders message identifiers (\xc2\xa73.2 engine)");
            ("RBcast", "reliable broadcast (\xc2\xa73.1)");
          ]
        ~propose_port:"abcast-i->consensus.propose" ~decide_port:"consensus->abcast-i.decide"
        ~net_port:"net->abcast-i"
        ~make_abcast:(fun ~propose ->
          let a =
            Abcast_indirect.create ~engine:(engine t) ~params ~me ~diffuse ~send ~broadcast
              ~consensus:{ Abcast_indirect.propose } ~on_adeliver ~obs ()
          in
          {
            a_abcast = Abcast_indirect.abcast a;
            a_on_decide = Abcast_indirect.on_decide a;
            a_on_diffuse = Abcast_indirect.on_diffuse a;
            a_direct =
              (fun ~src msg ->
                match msg with
                | Msg.Payload_push m -> Abcast_indirect.on_payload_push a m
                | Msg.Payload_request { ids } -> Abcast_indirect.on_payload_request a ~src ids
                | _ -> ());
            a_next_instance = (fun () -> Abcast_indirect.next_instance a);
            a_snapshot = (fun () -> Abcast_indirect.snapshot a);
          })
  in
  t.impl <- Some impl;
  (* Demultiplexer: heartbeats feed the detector directly; protocol
     messages cross into the mounted module(s) through the bus. *)
  let demux ~src msg =
    if not t.crashed then
      match msg with
      | Msg.Heartbeat -> begin
        match t.heartbeat with Some hb -> Heartbeat_fd.on_heartbeat hb ~src | None -> ()
      end
      | _ -> begin
        match impl with
        | Monolithic_stack s -> Event_bus.emit s.port_net (src, msg)
        | Composed_stack s -> begin
          match msg with
          | Msg.Diffuse m -> Event_bus.emit s.port_net_abcast m
          | Msg.Decision_tag { meta; inst; round; value } ->
            Event_bus.emit s.port_net_rbcast (src, meta, (inst, round, value))
          | Msg.Estimate _ | Msg.Propose _ | Msg.Ack _ | Msg.Nack _ | Msg.New_round _
          | Msg.Decision_request _ | Msg.Decision_full _ ->
            Event_bus.emit s.port_net_consensus (src, msg)
          | Msg.Payload_push _ | Msg.Payload_request _ -> s.abcast.a_direct ~src msg
          | Msg.Heartbeat | Msg.Prop_dec _ | Msg.Ack_diff _ | Msg.Mono_estimate _
          | Msg.Mono_decision_tag _ | Msg.To_coord _ ->
            ()
        end
      end
  in
  deliver_ref := demux;
  (* A [Tampered] envelope is the message adversary's in-flight payload
     flip. The receiver's checksum detects the mismatch and discards the
     copy — under lossy transport the reliable channel's retransmission
     recovers it, so corruption degrades to loss. The tamper observer
     fires so the invariant monitor can count detected corruption. *)
  let handle_wire ~src wire =
    match wire with
    | Wire_msg.Plain msg -> demux ~src msg
    | Wire_msg.Frame frame -> begin
      match t.rchannel with
      | Some channel -> Rchannel.receive_raw channel ~src frame
      | None -> ()
    end
    | Wire_msg.Tampered inner ->
      if Obs.enabled t.obs then Obs.incr t.obs "net.corrupt_detected";
      (* Parented to the ambient [rx] span of the tampered copy; the copy
         goes no further, so the span ends its chain. *)
      if Obs.tracing t.obs then
        ignore
          (Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:(Wire_msg.layer inner)
             ~phase:"drop" ~detail:("checksum: " ^ Wire_msg.kind inner));
      on_tamper ~detected:true
  in
  Network.register net me (fun ~src wire ->
      if not t.crashed then handle_wire ~src wire);
  t

(* ---- Snapshot ---- *)

module Snap = Snapshot

type rep_data = {
  pd_offers : int list; (* front first *)
  pd_next_seq : int;
  pd_offered : int;
  pd_admitted : int;
  pd_delivered_count : int;
  pd_rev_deliveries : App_msg.id list;
  pd_crashed : bool;
}

let kind_name = function
  | Modular -> "modular"
  | Monolithic -> "monolithic"
  | Indirect -> "indirect"

let snapshot t =
  let offers = List.rev (Queue.fold (fun acc s -> s :: acc) [] t.offers) in
  Snap.make ~name:(Printf.sprintf "core.replica.p%d" (t.me + 1)) ~version:1
    ~data:
      (Snap.pack
         {
           pd_offers = offers;
           pd_next_seq = t.next_seq;
           pd_offered = t.offered;
           pd_admitted = t.admitted;
           pd_delivered_count = t.delivered_count;
           pd_rev_deliveries = t.rev_deliveries;
           pd_crashed = t.crashed;
         })
    [
      ("kind", Snap.String (kind_name t.kind));
      ("crashed", Snap.Bool t.crashed);
      ("next_seq", Snap.Int t.next_seq);
      ("offered", Snap.Int t.offered);
      ("admitted", Snap.Int t.admitted);
      ("delivered_count", Snap.Int t.delivered_count);
      ("queued_offers", Snap.Int (Queue.length t.offers));
    ]

(* The whole per-process state, one section per mounted module, in a fixed
   order (replica, flow, rchannel, fd, bus, then the stack's protocol
   modules top-down). *)
let sections t =
  let p = t.me + 1 in
  let base =
    [ snapshot t; Flow_control.snapshot ~name:(Printf.sprintf "core.replica.p%d.flow" p) t.flow ]
  in
  let rchannel =
    match t.rchannel with Some ch -> [ Rchannel.snapshot ch ] | None -> []
  in
  let fd = match t.heartbeat with Some hb -> [ Heartbeat_fd.snapshot hb ] | None -> [] in
  let bus =
    Event_bus.snapshot ~name:(Printf.sprintf "framework.bus.p%d" p) (Stack.bus t.stack)
  in
  let stack =
    match t.impl with
    | None -> []
    | Some (Composed_stack { abcast; consensus; rbcast; _ }) ->
      [ abcast.a_snapshot (); consensus.c_snapshot (); Rbcast.snapshot rbcast ]
    | Some (Monolithic_stack { mono; _ }) -> [ Abcast_monolithic.snapshot mono ]
  in
  base @ rchannel @ fd @ [ bus ] @ stack
