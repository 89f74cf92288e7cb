open Repro_net
module Obs = Repro_obs.Obs

type 'p t = {
  me : Pid.t;
  n : int;
  variant : Params.rbcast_variant;
  broadcast : meta:Msg.rb_meta -> 'p -> unit;
  deliver : meta:Msg.rb_meta -> 'p -> unit;
  obs : Obs.t;
  c_broadcasts : Obs.counter;
  c_delivers : Obs.counter;
  c_relays : Obs.counter;
  seen : Id_table.t; (* rdelivered (origin, seq) envelopes *)
  mutable next_seq : int;
}

let create ~me ~n ~variant ~broadcast ~deliver ?(obs = Obs.noop) () =
  {
    me;
    n;
    variant;
    broadcast;
    deliver;
    obs;
    c_broadcasts = Obs.counter obs "rbcast.broadcasts";
    c_delivers = Obs.counter obs "rbcast.delivers";
    c_relays = Obs.counter obs "rbcast.relays";
    seen = Id_table.create ~n;
    next_seq = 0;
  }

let relayers ~n ~origin =
  let count = (n - 1) / 2 in
  let rec take acc k pid =
    if k = 0 || pid >= n then List.rev acc
    else if pid = origin then take acc k (pid + 1)
    else take (pid :: acc) (k - 1) (pid + 1)
  in
  take [] count 0

let send_to_others t ~meta payload = t.broadcast ~meta payload

let rbcast t payload =
  let meta = { Msg.rb_origin = t.me; rb_seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  Id_table.add t.seen ~origin:meta.rb_origin ~seq:meta.rb_seq;
  Obs.bump t.obs t.c_broadcasts;
  Obs.bump t.obs t.c_delivers;
  let sp =
    if Obs.tracing t.obs then
      Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Rbcast ~phase:"rbcast"
        ~detail:(Obs.Span.detail2 "rb " (meta.rb_origin + 1) "/" meta.rb_seq "")
    else Obs.Span.no_parent
  in
  Obs.with_span_ctx t.obs sp (fun () ->
      t.deliver ~meta payload;
      send_to_others t ~meta payload)

(* Arithmetic membership in [relayers ~n ~origin] — the relay set is the
   first ⌊(n-1)/2⌋ pids with [origin] skipped, so [me]'s rank among
   non-origin pids decides it without building the list per receipt. *)
let should_relay t ~origin =
  match t.variant with
  | Params.Classic -> true
  | Params.Majority ->
    t.me <> origin && (if t.me < origin then t.me else t.me - 1) < (t.n - 1) / 2

let receive t ~src:_ ~meta payload =
  let origin = meta.Msg.rb_origin and seq = meta.Msg.rb_seq in
  if not (Id_table.mem t.seen ~origin ~seq) then begin
    Id_table.add t.seen ~origin ~seq;
    Obs.bump t.obs t.c_delivers;
    let sp =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:(Obs.span_ctx t.obs) ~pid:t.me ~layer:`Rbcast ~phase:"rdeliver"
          ~detail:(Obs.Span.detail2 "rb " (meta.Msg.rb_origin + 1) "/" meta.Msg.rb_seq "")
      else Obs.Span.no_parent
    in
    Obs.with_span_ctx t.obs sp (fun () ->
        t.deliver ~meta payload;
        if should_relay t ~origin:meta.Msg.rb_origin then begin
          Obs.bump t.obs t.c_relays;
          send_to_others t ~meta payload
        end)
  end

(* ---- Snapshot ---- *)

module Snap = Repro_sim.Snapshot

let snapshot ?name t =
  let name =
    match name with Some n -> n | None -> Printf.sprintf "core.rbcast.p%d" (t.me + 1)
  in
  Snap.make ~name ~version:1 ~data:(Snap.pack t.seen)
    [
      ("next_seq", Snap.Int t.next_seq);
      ("seen", Snap.Int (Id_table.population t.seen));
    ]
