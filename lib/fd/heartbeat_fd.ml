open Repro_sim
open Repro_net

type config = {
  period : Time.span;
  initial_timeout : Time.span;
  timeout_increment : Time.span;
  timeout_decay : Time.span;
}

let default_config =
  {
    period = Time.span_ms 10;
    initial_timeout = Time.span_ms 50;
    timeout_increment = Time.span_ms 50;
    timeout_decay = Time.span_ms 1;
  }

type peer = {
  pid : Pid.t;
  mutable timeout : Time.span;
  mutable suspected : bool;
  mutable watchdog : Engine.timer option;
}

type t = {
  engine : Engine.t;
  config : config;
  me : Pid.t;
  peers : peer array; (* indexed by pid; slot [me] is unused *)
  send_heartbeat : dst:Pid.t -> unit;
  mutable listeners : (Pid.t -> unit) list;
  mutable stopped : bool;
}

let notify t p = List.iter (fun f -> f p) (List.rev t.listeners)

let rec arm_watchdog t peer =
  peer.watchdog <-
    Some
      (Engine.schedule_after t.engine peer.timeout (fun () ->
           if not t.stopped && not peer.suspected then begin
             peer.suspected <- true;
             notify t peer.pid
           end))

and heartbeat_received t peer =
  (match peer.watchdog with
  | Some timer -> Engine.cancel t.engine timer
  | None -> ());
  if peer.suspected then begin
    (* False suspicion: be more patient with this peer from now on. *)
    peer.suspected <- false;
    peer.timeout <- Time.span_add peer.timeout t.config.timeout_increment
  end
  else begin
    (* Healthy heartbeat: decay a grown timeout back toward the configured
       floor, so a transient partition does not permanently inflate
       crash-detection latency. *)
    let floor_ns = Time.span_to_ns t.config.initial_timeout in
    let cur_ns = Time.span_to_ns peer.timeout in
    if cur_ns > floor_ns then
      peer.timeout <-
        Time.span_ns (max floor_ns (cur_ns - Time.span_to_ns t.config.timeout_decay))
  end;
  arm_watchdog t peer

let rec heartbeat_round t =
  if not t.stopped then begin
    Array.iter
      (fun peer -> if peer.pid <> t.me then t.send_heartbeat ~dst:peer.pid)
      t.peers;
    ignore (Engine.schedule_after t.engine t.config.period (fun () -> heartbeat_round t))
  end

let create engine config ~n ~me ~send_heartbeat =
  let peer pid = { pid; timeout = config.initial_timeout; suspected = false; watchdog = None } in
  let t =
    {
      engine;
      config;
      me;
      peers = Array.init n peer;
      send_heartbeat;
      listeners = [];
      stopped = false;
    }
  in
  Array.iter (fun peer -> if peer.pid <> me then arm_watchdog t peer) t.peers;
  heartbeat_round t;
  t

let fd t =
  Fd.make
    ~is_suspected:(fun p -> p <> t.me && t.peers.(p).suspected)
    ~add_listener:(fun f -> t.listeners <- f :: t.listeners)

let on_heartbeat t ~src = if not t.stopped && src <> t.me then heartbeat_received t t.peers.(src)
let stop t = t.stopped <- true

let current_timeout t p = t.peers.(p).timeout

let suspects t =
  Array.to_list t.peers
  |> List.filter_map (fun peer ->
         if peer.pid <> t.me && peer.suspected then Some peer.pid else None)
  |> List.sort Pid.compare

(* ---- Snapshot ---- *)

module Snap = Snapshot

type hb_data = { hd_peers : peer array; hd_stopped : bool }

let snapshot ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "fd.heartbeat.p%d" (t.me + 1)
  in
  let peers = Array.map (fun p -> { p with watchdog = None }) t.peers in
  Snap.make ~name ~version:1
    ~data:(Snap.pack { hd_peers = peers; hd_stopped = t.stopped })
    [
      ("stopped", Snap.Bool t.stopped);
      ( "suspected",
        Snap.List
          (Array.to_list (Array.map (fun p -> Snap.Bool p.suspected) t.peers)) );
      ( "timeout_ns",
        Snap.List
          (Array.to_list
             (Array.map (fun p -> Snap.Int (Time.span_to_ns p.timeout)) t.peers)) );
    ]
