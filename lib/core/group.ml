open Repro_sim
open Repro_net
module Obs = Repro_obs.Obs

type latency_record = {
  id : App_msg.id;
  size : int;
  abcast_at : Time.t;
  first_delivery : Time.t;
}

type t = {
  engine : Engine.t;
  network : Wire_msg.t Network.t;
  params : Params.t;
  mutable replicas : Replica.t array;
  seen : Id_table.t; (* ids already seen delivered somewhere *)
  mutable rev_latencies : latency_record list;
  mutable observers : (Pid.t -> App_msg.t -> unit) list;
  mutable tamper_observers : (Pid.t -> detected:bool -> unit) list;
}

let handle_delivery t pid m =
  let id = m.App_msg.id in
  if not (Id_table.mem t.seen ~origin:id.App_msg.origin ~seq:id.App_msg.seq)
  then begin
    Id_table.add t.seen ~origin:id.App_msg.origin ~seq:id.App_msg.seq;
    t.rev_latencies <-
      {
        id = m.App_msg.id;
        size = m.App_msg.size;
        abcast_at = m.App_msg.abcast_at;
        first_delivery = Engine.now t.engine;
      }
      :: t.rev_latencies
  end;
  List.iter (fun f -> f pid m) t.observers

let create ~kind ~params ?(fd_mode = `Good_run) ?(record_deliveries = true)
    ?(obs = Obs.noop) () =
  let engine = Engine.create ~seed:params.Params.seed () in
  (* The observability sink is usually created before any engine exists
     (e.g. by the CLI, from flags); attach it to this group's virtual
     clock so every metric and event is stamped with Engine time. The
     reader holds the clock's cell only, so a sink kept after the run
     does not keep this group's world alive. *)
  Obs.set_clock obs (Engine.clock engine);
  let network =
    Network.create engine ~wire:params.Params.wire ?topology:params.Params.topology
      ~kind_names:Wire_msg.kind_names ~kind_index:Wire_msg.kind_index
      ~kind_of:Wire_msg.kind ~layer_of:Wire_msg.layer ~obs ~n:params.Params.n
      ~payload_bytes:Wire_msg.payload_bytes ()
  in
  (match params.Params.transport with
  | Params.Lossy p -> Network.set_loss_rate network p
  | Params.Tcp_like -> ());
  let t =
    {
      engine;
      network;
      params;
      replicas = [||];
      seen = Id_table.create ~n:params.Params.n;
      rev_latencies = [];
      observers = [];
      tamper_observers = [];
    }
  in
  t.replicas <-
    Array.init params.Params.n (fun pid ->
        Replica.create ~kind ~params ~net:network ~me:pid ~fd_mode ~record_deliveries
          ~on_adeliver:(fun m -> handle_delivery t pid m)
          ~on_tamper:(fun ~detected ->
            List.iter (fun f -> f pid ~detected) t.tamper_observers)
          ~obs ());
  t

let engine t = t.engine
let network t = t.network
let params t = t.params
let replica t pid = t.replicas.(pid)
let abcast t pid ~size = Replica.abcast t.replicas.(pid) ~size
let run_for t span = Engine.run_until t.engine (Time.add (Engine.now t.engine) span)

let run_until_quiescent t ?limit () =
  match limit with
  | None ->
    Engine.run t.engine;
    true
  | Some span ->
    let deadline = Time.add (Engine.now t.engine) span in
    let rec loop () =
      if Engine.pending t.engine = 0 then true
      else if Time.(Engine.now t.engine >= deadline) then false
      else begin
        ignore (Engine.step t.engine);
        loop ()
      end
    in
    loop ()

let crash t pid = Replica.crash t.replicas.(pid)
let deliveries t pid = Replica.deliveries t.replicas.(pid)
let delivered_counts t = Array.map Replica.delivered_count t.replicas

let total_admitted t =
  Array.fold_left (fun acc r -> acc + Replica.admitted r) 0 t.replicas

(* Records are prepended at [Engine.now], which never decreases, so the
   reversed list is already in first-delivery order (ties in delivery
   order, as a stable sort would leave them). *)
let latencies t = List.rev t.rev_latencies

let on_delivery t f = t.observers <- t.observers @ [ f ]
let on_tamper t f = t.tamper_observers <- t.tamper_observers @ [ f ]
let stats t = Network.stats t.network

let mean_batch_size t =
  let r = t.replicas.(0) in
  let instances = Replica.instances_decided r in
  if instances = 0 then 0.0
  else float_of_int (Replica.delivered_count r) /. float_of_int instances

(* ---- Snapshot ---- *)

module Snap = Snapshot

type grp_data = { gd_seen : Id_table.t; gd_rev_latencies : latency_record list }

let snapshot t =
  Snap.make ~name:"core.group" ~version:1
    ~data:(Snap.pack { gd_seen = t.seen; gd_rev_latencies = t.rev_latencies })
    [
      ("n", Snap.Int t.params.Params.n);
      ("distinct_delivered", Snap.Int (Id_table.population t.seen));
      ("latency_records", Snap.Int (List.length t.rev_latencies));
    ]

(* The whole world, one section per module: engine (clock, RNG, queue
   residency), per-node CPUs, network, every replica's mounted modules,
   then the group's own delivery ledger. *)
let sections t =
  [
    Engine.snapshot t.engine;
    Engine.rng_snapshot t.engine;
    Engine.queue_snapshot t.engine;
  ]
  @ List.concat_map
      (fun pid ->
        [ Cpu.snapshot ~name:(Printf.sprintf "sim.cpu.p%d" (pid + 1)) (Network.cpu t.network pid) ])
      (Pid.all ~n:t.params.Params.n)
  @ [ Network.snapshot t.network ]
  @ List.concat_map
      (fun pid -> Replica.sections t.replicas.(pid))
      (Pid.all ~n:t.params.Params.n)
  @ [ snapshot t ]
