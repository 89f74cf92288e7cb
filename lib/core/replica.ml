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
  c_restore : Snapshot.section -> unit;
}

type stack_impl =
  | Modular_stack of {
      abcast : Abcast_modular.t;
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
  | Indirect_stack of {
      abcast : Abcast_indirect.t;
      consensus : consensus_impl;
      rbcast : (int * int * Batch.t option) Rbcast.t;
      port_net_abcast : App_msg.t Event_bus.port;
      port_net_consensus : (Pid.t * Msg.t) Event_bus.port;
      port_net_rbcast : (Pid.t * Msg.rb_meta * (int * int * Batch.t option)) Event_bus.port;
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
  | Some (Modular_stack s) -> Abcast_modular.next_instance s.abcast
  | Some (Monolithic_stack s) -> Abcast_monolithic.decided_instances s.mono
  | Some (Indirect_stack s) -> Abcast_indirect.next_instance s.abcast
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
      Obs.span t.obs ~pid:t.me ~layer:`App ~phase:"adeliver"
        ~detail:
          (Printf.sprintf "m %d/%d" (m.App_msg.id.App_msg.origin + 1)
             m.App_msg.id.App_msg.seq)
        ()
    else Obs.Span.no_parent
  in
  Obs.with_span_ctx t.obs sp (fun () ->
      if Pid.equal m.App_msg.id.App_msg.origin t.me then Flow_control.release t.flow;
      t.on_adeliver m)

let stack_abcast t m =
  match t.impl with
  | Some (Modular_stack s) -> Abcast_modular.abcast s.abcast m
  | Some (Monolithic_stack s) -> Abcast_monolithic.abcast s.mono m
  | Some (Indirect_stack s) -> Abcast_indirect.abcast s.abcast m
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
        Obs.span t.obs ~pid:t.me ~layer:`App ~phase:"publish"
          ~detail:(Printf.sprintf "m %d/%d (%d B)" (t.me + 1) m.App_msg.id.App_msg.seq size)
          ()
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
        c_restore = (fun s -> Consensus.restore c s);
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
        c_restore = (fun s -> Consensus_classic.restore c s);
      }
  in
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
          ~on_adeliver:(fun m -> handle_adeliver t m)
          ~obs ()
      in
      let port_net = Event_bus.port bus "net->abcast+" in
      Event_bus.subscribe port_net (fun (src, msg) ->
          Abcast_monolithic.receive mono ~src msg);
      Monolithic_stack { mono; port_net }
    | Modular ->
      Stack.mount stack
        { Stack.name = "ABcast"; description = "atomic broadcast by reduction (\xc2\xa73.3)" };
      Stack.mount stack
        { Stack.name = "Consensus"; description = "optimized Chandra-Toueg (\xc2\xa73.2)" };
      Stack.mount stack
        { Stack.name = "RBcast"; description = "reliable broadcast (\xc2\xa73.1)" };
      (* Ports between microprotocols: every signal crossing a module
         boundary is an event-bus emission, charged the dispatch cost. *)
      let port_propose = Event_bus.port bus "abcast->consensus.propose" in
      let port_decide = Event_bus.port bus "consensus->abcast.decide" in
      let port_rbcast = Event_bus.port bus "consensus->rbcast.rbcast" in
      let port_rdeliver = Event_bus.port bus "rbcast->consensus.rdeliver" in
      let port_net_abcast = Event_bus.port bus "net->abcast" in
      let port_net_consensus = Event_bus.port bus "net->consensus" in
      let port_net_rbcast = Event_bus.port bus "net->rbcast" in
      let rbcast =
        Rbcast.create ~me ~n:params.Params.n
          ~variant:params.Params.modular.Params.rbcast_variant
          ~broadcast:(fun ~meta (inst, round, value) ->
            broadcast (Msg.Decision_tag { meta; inst; round; value }))
          ~deliver:(fun ~meta payload ->
            Event_bus.emit port_rdeliver (meta, payload))
          ~obs ()
      in
      let rbcast_decision ~inst ~round ~value =
        Event_bus.emit port_rbcast (inst, round, value)
      in
      let on_decide ~inst value = Event_bus.emit port_decide (inst, value) in
      let consensus = make_consensus ~rbcast_decision ~on_decide in
      let abcast =
        Abcast_modular.create ~params ~me
          ~diffuse:(fun m -> broadcast (Msg.Diffuse m))
          ~consensus:
            {
              Abcast_modular.propose =
                (fun ~inst value -> Event_bus.emit port_propose (inst, value));
            }
          ~on_adeliver:(fun m -> handle_adeliver t m)
          ~obs ()
      in
      Event_bus.subscribe port_propose (fun (inst, value) ->
          consensus.c_propose ~inst value);
      Event_bus.subscribe port_decide (fun (inst, value) ->
          Abcast_modular.on_decide abcast ~inst value);
      Event_bus.subscribe port_rbcast (fun payload -> Rbcast.rbcast rbcast payload);
      Event_bus.subscribe port_rdeliver (fun (meta, (inst, round, value)) ->
          consensus.c_rb_deliver ~proposer:meta.Msg.rb_origin ~inst ~round ~value);
      Event_bus.subscribe port_net_abcast (fun m -> Abcast_modular.on_diffuse abcast m);
      Event_bus.subscribe port_net_consensus (fun (src, msg) ->
          consensus.c_receive ~src msg);
      Event_bus.subscribe port_net_rbcast (fun (src, meta, payload) ->
          Rbcast.receive rbcast ~src ~meta payload);
      Modular_stack
        { abcast; consensus; rbcast; port_net_abcast; port_net_consensus; port_net_rbcast }
    | Indirect ->
      Stack.mount stack
        {
          Stack.name = "ABcast-I";
          description = "atomic broadcast by indirect consensus (related work [12])";
        };
      Stack.mount stack
        { Stack.name = "Consensus"; description = "orders message identifiers (\xc2\xa73.2 engine)" };
      Stack.mount stack
        { Stack.name = "RBcast"; description = "reliable broadcast (\xc2\xa73.1)" };
      let port_propose = Event_bus.port bus "abcast-i->consensus.propose" in
      let port_decide = Event_bus.port bus "consensus->abcast-i.decide" in
      let port_rbcast = Event_bus.port bus "consensus->rbcast.rbcast" in
      let port_rdeliver = Event_bus.port bus "rbcast->consensus.rdeliver" in
      let port_net_abcast = Event_bus.port bus "net->abcast-i" in
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
      let rbcast_decision ~inst ~round ~value =
        Event_bus.emit port_rbcast (inst, round, value)
      in
      let on_decide ~inst value = Event_bus.emit port_decide (inst, value) in
      let consensus = make_consensus ~rbcast_decision ~on_decide in
      let abcast =
        Abcast_indirect.create ~engine:(engine t) ~params ~me
          ~diffuse:(fun m -> broadcast (Msg.Diffuse m))
          ~send ~broadcast
          ~consensus:
            {
              Abcast_indirect.propose =
                (fun ~inst value -> Event_bus.emit port_propose (inst, value));
            }
          ~on_adeliver:(fun m -> handle_adeliver t m)
          ~obs ()
      in
      Event_bus.subscribe port_propose (fun (inst, value) -> consensus.c_propose ~inst value);
      Event_bus.subscribe port_decide (fun (inst, value) ->
          Abcast_indirect.on_decide abcast ~inst value);
      Event_bus.subscribe port_rbcast (fun payload -> Rbcast.rbcast rbcast payload);
      Event_bus.subscribe port_rdeliver (fun (meta, (inst, round, value)) ->
          consensus.c_rb_deliver ~proposer:meta.Msg.rb_origin ~inst ~round ~value);
      Event_bus.subscribe port_net_abcast (fun m -> Abcast_indirect.on_diffuse abcast m);
      Event_bus.subscribe port_net_consensus (fun (src, msg) -> consensus.c_receive ~src msg);
      Event_bus.subscribe port_net_rbcast (fun (src, meta, payload) ->
          Rbcast.receive rbcast ~src ~meta payload);
      Indirect_stack
        { abcast; consensus; rbcast; port_net_abcast; port_net_consensus; port_net_rbcast }
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
        | Modular_stack s -> begin
          match msg with
          | Msg.Diffuse m -> Event_bus.emit s.port_net_abcast m
          | Msg.Decision_tag { meta; inst; round; value } ->
            Event_bus.emit s.port_net_rbcast (src, meta, (inst, round, value))
          | Msg.Estimate _ | Msg.Propose _ | Msg.Ack _ | Msg.Nack _ | Msg.New_round _
          | Msg.Decision_request _ | Msg.Decision_full _ ->
            Event_bus.emit s.port_net_consensus (src, msg)
          | Msg.Heartbeat | Msg.Prop_dec _ | Msg.Ack_diff _ | Msg.Mono_estimate _
          | Msg.Mono_decision_tag _ | Msg.To_coord _ | Msg.Payload_request _
          | Msg.Payload_push _ ->
            ()
        end
        | Indirect_stack s -> begin
          match msg with
          | Msg.Diffuse m -> Event_bus.emit s.port_net_abcast m
          | Msg.Payload_push m -> Abcast_indirect.on_payload_push s.abcast m
          | Msg.Payload_request { ids } ->
            Abcast_indirect.on_payload_request s.abcast ~src ids
          | Msg.Decision_tag { meta; inst; round; value } ->
            Event_bus.emit s.port_net_rbcast (src, meta, (inst, round, value))
          | Msg.Estimate _ | Msg.Propose _ | Msg.Ack _ | Msg.Nack _ | Msg.New_round _
          | Msg.Decision_request _ | Msg.Decision_full _ ->
            Event_bus.emit s.port_net_consensus (src, msg)
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
          (Obs.span t.obs ~pid:t.me ~layer:(Wire_msg.layer inner) ~phase:"drop"
             ~detail:("checksum: " ^ Wire_msg.kind inner) ());
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

let own_section_name t = Printf.sprintf "core.replica.p%d" (t.me + 1)

let snapshot t =
  let offers = List.rev (Queue.fold (fun acc s -> s :: acc) [] t.offers) in
  Snap.make ~name:(own_section_name t) ~version:1
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

let restore t s =
  Snap.check s ~name:(own_section_name t) ~version:1;
  if not (String.equal (Snap.get_string s "kind") (kind_name t.kind)) then
    raise
      (Snap.Codec_error
         (own_section_name t ^ ": snapshot taken with stack kind "
        ^ Snap.get_string s "kind"));
  let (d : rep_data) = Snap.unpack_data s in
  Queue.clear t.offers;
  List.iter (fun sz -> Queue.push sz t.offers) d.pd_offers;
  t.next_seq <- d.pd_next_seq;
  t.offered <- d.pd_offered;
  t.admitted <- d.pd_admitted;
  t.delivered_count <- d.pd_delivered_count;
  t.rev_deliveries <- d.pd_rev_deliveries;
  t.crashed <- d.pd_crashed

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
    | Some (Modular_stack { abcast; consensus; rbcast; _ }) ->
      [ Abcast_modular.snapshot abcast; consensus.c_snapshot (); Rbcast.snapshot rbcast ]
    | Some (Indirect_stack { abcast; consensus; rbcast; _ }) ->
      [ Abcast_indirect.snapshot abcast; consensus.c_snapshot (); Rbcast.snapshot rbcast ]
    | Some (Monolithic_stack { mono; _ }) -> [ Abcast_monolithic.snapshot mono ]
  in
  base @ rchannel @ fd @ [ bus ] @ stack

let restore_sections t sections =
  let p = t.me + 1 in
  let by_name name = List.find_opt (fun (s : Snap.section) -> String.equal s.name name) sections in
  let req name f =
    match by_name name with
    | Some s -> f s
    | None -> raise (Snap.Codec_error ("missing section " ^ name))
  in
  let opt name f = match by_name name with Some s -> f s | None -> () in
  req (own_section_name t) (restore t);
  req
    (Printf.sprintf "core.replica.p%d.flow" p)
    (Flow_control.restore ~name:(Printf.sprintf "core.replica.p%d.flow" p) t.flow);
  (match t.rchannel with
  | Some ch -> req (Printf.sprintf "net.rchannel.p%d" p) (Rchannel.restore ch)
  | None -> ());
  (match t.heartbeat with
  | Some hb -> req (Printf.sprintf "fd.heartbeat.p%d" p) (Heartbeat_fd.restore hb)
  | None -> ());
  opt
    (Printf.sprintf "framework.bus.p%d" p)
    (Event_bus.restore ~name:(Printf.sprintf "framework.bus.p%d" p) (Stack.bus t.stack));
  match t.impl with
  | None -> ()
  | Some (Modular_stack { abcast; consensus; _ }) ->
    req (Printf.sprintf "core.abcast_modular.p%d" p) (Abcast_modular.restore abcast);
    req (Printf.sprintf "core.consensus.p%d" p) consensus.c_restore;
    req (Printf.sprintf "core.rbcast.p%d" p)
      (fun s ->
        match t.impl with
        | Some (Modular_stack { rbcast; _ }) -> Rbcast.restore rbcast s
        | _ -> ())
  | Some (Indirect_stack { abcast; consensus; _ }) ->
    req (Printf.sprintf "core.abcast_indirect.p%d" p) (Abcast_indirect.restore abcast);
    req (Printf.sprintf "core.consensus.p%d" p) consensus.c_restore;
    req (Printf.sprintf "core.rbcast.p%d" p)
      (fun s ->
        match t.impl with
        | Some (Indirect_stack { rbcast; _ }) -> Rbcast.restore rbcast s
        | _ -> ())
  | Some (Monolithic_stack { mono; _ }) ->
    req (Printf.sprintf "core.abcast_monolithic.p%d" p) (Abcast_monolithic.restore mono)
