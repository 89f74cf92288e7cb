open Repro_sim
module Obs = Repro_obs.Obs

type 'msg wire = Data of { seq : int; payload : 'msg } | Ack of { cumulative : int }

(* Frames are pooled: a slot's frame is mutated in place when the window
   wraps back over it, so steady-state sends allocate nothing. A popped
   frame keeps its last payload reference until the slot is reused — the
   retention is bounded by the ring capacity. *)
type 'msg frame = {
  mutable seq : int;
  mutable payload : 'msg;
  mutable sent_at : Time.t; (* first transmission, for RTT sampling *)
  mutable ctx : int; (* span context at first transmission, to root retransmits *)
  mutable retransmitted : bool;
}

(* The send window as a ring buffer: slots [head, head+len) (mod capacity,
   a power of two) hold the unacked frames in ascending seq order. The
   previous list representation paid an O(window) append per send and a
   full partition per ack; here both ends are O(1). *)
type 'msg link_out = {
  mutable next_seq : int;
  mutable ring : 'msg frame option array;
  mutable head : int;
  mutable len : int;
  mutable timer : Engine.timer option;
  mutable backoff : int; (* consecutive timeouts without ack progress *)
  mutable srtt : Time.span option; (* smoothed RTT, queueing included *)
}

type 'msg link_in = {
  mutable expected : int; (* next in-order seq *)
  mutable buffered : (int * 'msg) list; (* out-of-order, ascending *)
}

type 'msg t = {
  engine : Engine.t;
  me : Pid.t;
  send_raw : dst:Pid.t -> 'msg wire -> unit;
  deliver : src:Pid.t -> 'msg -> unit;
  rto : Time.span;
  burst : int;
  obs : Obs.t;
  outgoing : 'msg link_out array;
  incoming : 'msg link_in array;
  mutable retransmissions : int;
  mutable halted : bool;
}

let create engine ~me ~n ~send_raw ~deliver ?(rto = Time.span_ms 20) ?(burst = 32)
    ?(obs = Obs.noop) () =
  if burst < 1 then invalid_arg "Rchannel.create: burst must be >= 1";
  {
    engine;
    me;
    send_raw;
    deliver;
    rto;
    burst;
    obs;
    outgoing =
      Array.init n (fun _ ->
          {
            next_seq = 0;
            ring = Array.make 8 None;
            head = 0;
            len = 0;
            timer = None;
            backoff = 0;
            srtt = None;
          });
    incoming = Array.init n (fun _ -> { expected = 0; buffered = [] });
    retransmissions = 0;
    halted = false;
  }

let cancel_timer t link =
  match link.timer with
  | Some timer ->
    Engine.cancel t.engine timer;
    link.timer <- None
  | None -> ()

(* The [i]-th oldest unacked frame, [0 <= i < len]. *)
let frame_at link i =
  match link.ring.((link.head + i) land (Array.length link.ring - 1)) with
  | Some f -> f
  | None -> assert false (* slots inside the window always hold a frame *)

(* Append a fresh frame at the tail, reusing the slot's retired frame when
   the window has wrapped over it before. Doubles the ring when full,
   re-packing the window at slots [0, len). *)
let push_frame t link payload =
  let cap = Array.length link.ring in
  if link.len = cap then begin
    let ring' = Array.make (cap * 2) None in
    for i = 0 to link.len - 1 do
      ring'.(i) <- link.ring.((link.head + i) land (cap - 1))
    done;
    link.ring <- ring';
    link.head <- 0
  end;
  let idx = (link.head + link.len) land (Array.length link.ring - 1) in
  let seq = link.next_seq in
  link.next_seq <- seq + 1;
  link.len <- link.len + 1;
  (match link.ring.(idx) with
  | Some f ->
    f.seq <- seq;
    f.payload <- payload;
    f.sent_at <- Engine.now t.engine;
    f.ctx <- Obs.span_ctx t.obs;
    f.retransmitted <- false
  | None ->
    link.ring.(idx) <-
      Some
        {
          seq;
          payload;
          sent_at = Engine.now t.engine;
          ctx = Obs.span_ctx t.obs;
          retransmitted = false;
        });
  seq

(* The effective timeout adapts to the measured round-trip time (which
   includes the receiver's CPU queueing delay): a receiver digging out of a
   post-partition backlog acks seconds late, and retransmitting on a fixed
   short timer floods it with duplicates faster than it can process them —
   a metastable collapse where the duplicates themselves keep the queue
   long. [2 * srtt] keeps at most one retransmission per true round trip. *)
let base_timeout t link =
  match link.srtt with
  | None -> t.rto
  | Some srtt -> Time.span_max t.rto (Time.span_scale 2 srtt)

(* On timeout, re-send only the oldest [burst] unacknowledged frames (the
   receiver buffers out of order, so cumulative acks advance burst by
   burst), and back the timer off exponentially while no ack makes
   progress. An unbounded re-send of the whole backlog every fixed rto —
   what a long partition leaves behind — injects frames faster than the
   NIC drains them and congestion-collapses the healed network; the fault
   campaign's partition/heal schedules catch exactly that. *)
let rec arm_timer t ~dst link =
  cancel_timer t link;
  if link.len > 0 then begin
    let delay = Time.span_scale (1 lsl min link.backoff 4) (base_timeout t link) in
    link.timer <-
      Some
        (Engine.schedule_after t.engine delay (fun () ->
             if (not t.halted) && link.len > 0 then begin
               link.backoff <- link.backoff + 1;
               for i = 0 to min t.burst link.len - 1 do
                 let frame = frame_at link i in
                 frame.retransmitted <- true;
                 t.retransmissions <- t.retransmissions + 1;
                 Obs.incr t.obs "rchannel.retransmissions";
                 (* The timer fires with no ambient context; parent the
                    retransmit to the span that caused the original send
                    so the copy that finally gets through keeps a chain
                    back to the message's origin. *)
                 let sp =
                   if Obs.tracing t.obs then
                     Obs.span t.obs ~parent:frame.ctx ~pid:t.me ~layer:`Net
                       ~phase:"retransmit"
                       ~detail:(Obs.Span.detail2 "seq " frame.seq " -> p" (dst + 1) "")
                   else Obs.Span.no_parent
                 in
                 Obs.with_span_ctx t.obs sp (fun () ->
                     t.send_raw ~dst (Data { seq = frame.seq; payload = frame.payload }))
               done;
               arm_timer t ~dst link
             end))
  end

let send t ~dst payload =
  if dst = t.me then t.deliver ~src:t.me payload
  else if not t.halted then begin
    let link = t.outgoing.(dst) in
    let seq = push_frame t link payload in
    t.send_raw ~dst (Data { seq; payload });
    if link.timer = None then arm_timer t ~dst link
  end

(* Karn's rule: sample the round trip only from frames acked on their first
   transmission — a retransmitted frame's ack is ambiguous. EWMA with the
   classic 1/8 gain, applied to the acked frames in ascending seq order. *)
let sample_rtt t link frame =
  if not frame.retransmitted then begin
    let rtt = Time.diff (Engine.now t.engine) frame.sent_at in
    link.srtt <-
      Some
        (match link.srtt with
        | None -> rtt
        | Some srtt ->
          Time.span_ns (((7 * Time.span_to_ns srtt) + Time.span_to_ns rtt) / 8))
  end

let handle_ack t ~src ~cumulative =
  let link = t.outgoing.(src) in
  let progressed = ref false in
  while link.len > 0 && (frame_at link 0).seq <= cumulative do
    sample_rtt t link (frame_at link 0);
    link.head <- (link.head + 1) land (Array.length link.ring - 1);
    link.len <- link.len - 1;
    progressed := true
  done;
  if link.len = 0 then begin
    cancel_timer t link;
    link.backoff <- 0
  end
  else if !progressed then begin
    (* Progress: reset the backoff and give the remainder a fresh timeout. *)
    link.backoff <- 0;
    arm_timer t ~dst:src link
  end

let rec drain_in_order t ~src link =
  match link.buffered with
  | (seq, payload) :: rest when seq = link.expected ->
    link.buffered <- rest;
    link.expected <- seq + 1;
    t.deliver ~src payload;
    drain_in_order t ~src link
  | _ -> ()

let handle_data t ~src ~seq ~payload =
  let link = t.incoming.(src) in
  if seq >= link.expected && not (List.mem_assoc seq link.buffered) then begin
    link.buffered <-
      List.merge (fun (a, _) (b, _) -> compare a b) link.buffered [ (seq, payload) ];
    drain_in_order t ~src link
  end
  else Obs.incr t.obs "rchannel.duplicates";
  (* Always (re-)acknowledge what we have — lost acks are recovered by the
     sender's retransmission provoking a fresh one. *)
  t.send_raw ~dst:src (Ack { cumulative = link.expected - 1 })

let receive_raw t ~src frame =
  if not t.halted then
    match frame with
    | Data { seq; payload } -> handle_data t ~src ~seq ~payload
    | Ack { cumulative } -> handle_ack t ~src ~cumulative

let retransmissions t = t.retransmissions
let unacked t ~dst = t.outgoing.(dst).len
let srtt t ~dst = t.outgoing.(dst).srtt

let halt t =
  t.halted <- true;
  Array.iteri (fun _ link -> cancel_timer t link) t.outgoing

(* ---- Snapshot ---- *)

type 'msg frame_data = {
  fd_seq : int;
  fd_payload : 'msg;
  fd_sent_ns : int;
  fd_ctx : int;
  fd_retransmitted : bool;
}

type 'msg rc_data = {
  (* per destination: next_seq, unacked window oldest-first, backoff, srtt *)
  rd_out : (int * 'msg frame_data list * int * int option) array;
  (* per source: expected, out-of-order buffer *)
  rd_in : (int * (int * 'msg) list) array;
}

let snapshot t =
  let n = Array.length t.outgoing in
  let frames link =
    List.init link.len (fun i ->
        let f = frame_at link i in
        {
          fd_seq = f.seq;
          fd_payload = f.payload;
          fd_sent_ns = Time.to_ns f.sent_at;
          fd_ctx = f.ctx;
          fd_retransmitted = f.retransmitted;
        })
  in
  let data =
    Snapshot.pack
      {
        rd_out =
          Array.map
            (fun l -> (l.next_seq, frames l, l.backoff, Option.map Time.span_to_ns l.srtt))
            t.outgoing;
        rd_in = Array.map (fun l -> (l.expected, l.buffered)) t.incoming;
      }
  in
  Snapshot.make ~name:(Printf.sprintf "net.rchannel.p%d" (t.me + 1)) ~version:1 ~data
    [
      ("retransmissions", Snapshot.Int t.retransmissions);
      ("halted", Snapshot.Bool t.halted);
      ( "unacked",
        Snapshot.Int (Array.fold_left (fun acc l -> acc + l.len) 0 t.outgoing) );
      ( "out_next_seq",
        Snapshot.List (List.init n (fun i -> Snapshot.Int t.outgoing.(i).next_seq)) );
      ( "in_expected",
        Snapshot.List (List.init n (fun i -> Snapshot.Int t.incoming.(i).expected)) );
    ]
