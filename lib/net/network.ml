open Repro_sim
module Obs = Repro_obs.Obs

type 'msg node = {
  cpu : Cpu.t;
  mutable nic_free_at : Time.t;
  mutable nic_busy_ns : int;
  mutable handler : (src:Pid.t -> 'msg -> unit) option;
  mutable crashed : bool;
  mutable sends_before_crash : int option;
}

(* Message-adversary state (armed by the fault layer, never in benchmark
   runs). The mutators are supplied by the armer because the network is
   generic in ['msg]: corruption wraps a copy in a detectable tamper
   envelope, equivocation produces a well-formed alternate payload. The
   adversary owns a dedicated RNG stream so that arming it — or leaving
   every knob at zero — perturbs none of the base network's draws. *)
type 'msg mutators = {
  corrupt : 'msg -> 'msg option;
  equivocate : 'msg -> 'msg option;
}

type 'msg adversary = {
  adv_rng : Repro_sim.Rng.t;
  mutators : 'msg mutators;
  mutable drop_budget : int;
  mutable corrupt_rate : float;
  mutable duplicate_rate : float;
  mutable reorder_window : Time.span;
  mutable equivocate_rate : float;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable equivocated : int;
}

type adversary_stats = {
  adv_dropped : int;
  adv_corrupted : int;
  adv_duplicated : int;
  adv_reordered : int;
  adv_equivocated : int;
}

type 'msg t = {
  engine : Engine.t;
  wire : Wire.t;
  topology : Topology.t;
  rng : Repro_sim.Rng.t;
  nodes : 'msg node array;
  (* Per directed link: last scheduled arrival instant, to keep FIFO under
     jitter. *)
  last_arrival : Time.t array array;
  (* Per directed link: cut while [true]. A matrix rather than an
     association list so the per-copy admission check on the transmit
     path is two array reads. *)
  cut : bool array array;
  (* [others.(p)] is [Pid.others ~n p], computed once — broadcasts are
     per-message, the membership is static. *)
  others : Pid.t list array;
  payload_bytes : 'msg -> int;
  (* A copy's kind is its slot in the dense kind table given at creation,
     or -1 for a kind outside it, which [kind_of] then names. *)
  kind_index : 'msg -> int;
  kind_of : 'msg -> string;
  layer_of : 'msg -> Obs.layer;
  obs : Obs.t;
  stats : Net_stats.t;
  (* Counter handles resolved up front, by layer ([net.msgs.<layer>], …)
     and by dense kind ([net.kind_msgs.<kind>]): a copy is counted with
     array stores, no name built or hashed. *)
  ctr_msgs : Obs.counter array;
  ctr_payload : Obs.counter array;
  ctr_wire : Obs.counter array;
  ctr_kinds : Obs.counter array;
  ctr_dropped : Obs.counter;
  (* Transmit-span details ("<kind> -> p<d>") interned by dense kind slot
     and destination: [tx_details.(kind).(dst)], built on that pair's
     first copy and shared by every later one. A memo of a pure function
     of the pair, so it holds no run state. Empty unless the sink is
     tracing; each row is made on its kind's first copy. *)
  tx_details : string array array;
  mutable loss_rate : float;
  mutable extra_delay : Time.span;
  mutable adversary : 'msg adversary option;
}

(* Dense index for the (closed) layer variant, keying the per-layer
   counter handles. Must agree with [Obs.all_layers]. *)
let layer_index = function
  | `Abcast -> 0
  | `Consensus -> 1
  | `Rbcast -> 2
  | `Net -> 3
  | `App -> 4

let n t = Array.length t.nodes
let engine t = t.engine
let wire t = t.wire
let nic_busy_time t p = Time.span_ns t.nodes.(p).nic_busy_ns
let register t p handler = t.nodes.(p).handler <- Some handler
let cpu t p = t.nodes.(p).cpu
let is_crashed t p = t.nodes.(p).crashed
let crash t p = t.nodes.(p).crashed <- true

let crash_after_sends t p k =
  if k < 0 then invalid_arg "Network.crash_after_sends: negative count";
  t.nodes.(p).sends_before_crash <- Some k

let set_loss_rate t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Network.set_loss_rate: need 0 <= p < 1";
  t.loss_rate <- p

let cut t ~src ~dst = t.cut.(src).(dst) <- true
let heal t ~src ~dst = t.cut.(src).(dst) <- false

let heal_all t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) false) t.cut

let partition t blocks =
  let n = Array.length t.nodes in
  let listed = List.concat blocks in
  List.iter
    (fun p ->
      if p < 0 || p >= n then
        invalid_arg (Printf.sprintf "Network.partition: pid %d out of range" p))
    listed;
  if List.length (List.sort_uniq compare listed) <> List.length listed then
    invalid_arg "Network.partition: a pid appears in two blocks";
  (* Processes not listed in any block form implicit singleton blocks. *)
  let block_of = Array.make n (-1) in
  List.iteri (fun i block -> List.iter (fun p -> block_of.(p) <- n + i) block) blocks;
  List.iter (fun p -> if block_of.(p) < 0 then block_of.(p) <- p)
    (List.init n (fun p -> p));
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && block_of.(src) <> block_of.(dst) then
        t.cut.(src).(dst) <- true
    done
  done

let set_extra_delay t d = t.extra_delay <- d
let extra_delay t = t.extra_delay

(* ---- Message adversary ---- *)

(* The adversary's stream is derived from the run seed by constant mixing
   ([Rng.derive]) rather than by [Rng.split] of the engine's stream: a
   split would advance the engine stream and so perturb every later
   protocol draw, breaking the contract that arming an idle adversary
   changes nothing. The salt names the stream; deriving it here keeps the
   adversary's randomness owned by the module that draws from it. *)
let adv_seed_salt = 0x2adc0de5ea51ab1e

let arm_adversary t ~seed ~corrupt ~equivocate =
  match t.adversary with
  | Some _ -> ()
  | None ->
    t.adversary <-
      Some
        {
          adv_rng = Repro_sim.Rng.derive ~seed ~salt:adv_seed_salt;
          mutators = { corrupt; equivocate };
          drop_budget = 0;
          corrupt_rate = 0.0;
          duplicate_rate = 0.0;
          reorder_window = Time.span_zero;
          equivocate_rate = 0.0;
          dropped = 0;
          corrupted = 0;
          duplicated = 0;
          reordered = 0;
          equivocated = 0;
        }

let adversary_armed t = match t.adversary with Some _ -> true | None -> false

let with_adversary t what f =
  match t.adversary with
  | Some adv -> f adv
  | None -> invalid_arg ("Network." ^ what ^ ": no adversary armed")

let set_adv_drop_budget t d =
  if d < 0 then invalid_arg "Network.set_adv_drop_budget: negative budget";
  with_adversary t "set_adv_drop_budget" (fun adv -> adv.drop_budget <- d)

let rate_setter what t p set =
  if p < 0.0 || p >= 1.0 then invalid_arg ("Network." ^ what ^ ": need 0 <= p < 1");
  with_adversary t what set

let set_corrupt_rate t p =
  rate_setter "set_corrupt_rate" t p (fun adv -> adv.corrupt_rate <- p)

let set_duplicate_rate t p =
  rate_setter "set_duplicate_rate" t p (fun adv -> adv.duplicate_rate <- p)

let set_equivocate_rate t p =
  rate_setter "set_equivocate_rate" t p (fun adv -> adv.equivocate_rate <- p)

let set_reorder_window t w =
  if Time.span_to_ns w < 0 then
    invalid_arg "Network.set_reorder_window: negative window";
  with_adversary t "set_reorder_window" (fun adv -> adv.reorder_window <- w)

let adversary_stats t =
  match t.adversary with
  | None ->
    {
      adv_dropped = 0;
      adv_corrupted = 0;
      adv_duplicated = 0;
      adv_reordered = 0;
      adv_equivocated = 0;
    }
  | Some a ->
    {
      adv_dropped = a.dropped;
      adv_corrupted = a.corrupted;
      adv_duplicated = a.duplicated;
      adv_reordered = a.reordered;
      adv_equivocated = a.equivocated;
    }

(* [sid] is the transmit span of the copy being delivered, so the receive
   span parents across the wire hop. The receive span is stamped at the
   arrival instant (now), while the handler — and the ambient span context
   pointing at the receive span — runs after the receive CPU charge, so
   wire time and receive processing separate cleanly in the causal
   chain. *)
let deliver t ~src ~dst ~sid msg =
  let node = t.nodes.(dst) in
  if not node.crashed then begin
    let rx =
      if Obs.tracing t.obs then
        Obs.span t.obs ~parent:sid ~pid:dst ~layer:(t.layer_of msg) ~phase:"rx"
          ~detail:(t.kind_of msg)
      else Obs.Span.no_parent
    in
    let cost = Wire.recv_cpu_cost t.wire ~payload_bytes:(t.payload_bytes msg) in
    Cpu.submit node.cpu ~cost (fun () ->
        if not node.crashed then
          match node.handler with
          | Some handler ->
            Obs.set_span_ctx t.obs rx;
            handler ~src msg;
            Obs.set_span_ctx t.obs Obs.Span.no_parent
          | None -> ())
  end

let create engine ?(wire = Wire.default) ?topology ?(kind_names = [||])
    ?(kind_index = fun _ -> -1) ?(kind_of = fun _ -> "msg")
    ?(layer_of = fun _ -> `Net) ?(obs = Obs.noop) ~n
    ~payload_bytes () =
  if n < 1 then invalid_arg "Network.create: n must be >= 1";
  let node _ =
    {
      cpu = Cpu.create engine;
      nic_free_at = Time.zero;
      nic_busy_ns = 0;
      handler = None;
      crashed = false;
      sends_before_crash = None;
    }
  in
  let topology =
    match topology with Some t -> t | None -> Topology.uniform wire.Wire.propagation
  in
  let layers = Array.of_list Obs.all_layers in
  let by_layer prefix =
    Array.map (fun l -> Obs.counter obs (prefix ^ Obs.layer_name l)) layers
  in
  let t =
    {
      engine;
      wire;
      topology;
      rng = Repro_sim.Rng.split (Engine.rng engine);
      nodes = Array.init n node;
      last_arrival = Array.init n (fun _ -> Array.make n Time.zero);
      cut = Array.init n (fun _ -> Array.make n false);
      others = Array.init n (fun p -> Pid.others ~n p);
      payload_bytes;
      kind_index;
      kind_of;
      layer_of;
      obs;
      stats = Net_stats.create ~n ~kinds:kind_names;
      ctr_msgs = by_layer "net.msgs.";
      ctr_payload = by_layer "net.payload_bytes.";
      ctr_wire = by_layer "net.wire_bytes.";
      ctr_kinds =
        Array.map (fun k -> Obs.counter obs ("net.kind_msgs." ^ k)) kind_names;
      ctr_dropped = Obs.counter obs "net.dropped_msgs";
      tx_details =
        (if Obs.tracing obs then Array.make (Array.length kind_names) [||] else [||]);
      loss_rate = 0.0;
      extra_delay = Time.span_zero;
      adversary = None;
    }
  in
  t

(* "<kind> -> p<dst+1>" for a copy in kind slot [kind], interned when the
   slot is in the dense table: a slot names one kind for the network's
   lifetime, so the first copy's name stands for every later one. A kind
   met at run time (a tampered copy) is built afresh each time. *)
let tx_detail t ~kind ~dst msg =
  if kind >= Array.length t.tx_details then
    Obs.Span.detail1 (t.kind_of msg ^ " -> p") (dst + 1) ""
  else begin
    if Array.length t.tx_details.(kind) = 0 then
      t.tx_details.(kind) <- Array.make (Array.length t.nodes) "";
    let row = t.tx_details.(kind) in
    match row.(dst) with
    | "" ->
      let d = Obs.Span.detail1 (t.kind_of msg ^ " -> p") (dst + 1) "" in
      row.(dst) <- d;
      d
    | d -> d
  end

(* Layer-attributed traffic accounting: the [Net_stats] totals split by
   the protocol layer that produced each message — the measured side of
   the paper's per-layer message/byte argument (§5.2). Returns the
   transmit span (a child of [parent], the span context captured when the
   sender handed the message to the network). [kind] is the copy's
   [Net_stats] slot; a slot past the dense table is a kind met at run
   time, counted by name. Only called when the sink is enabled. *)
let record_tx t ~parent ~src ~dst msg ~kind ~payload_bytes ~wire_bytes =
  let layer = t.layer_of msg in
  let li = layer_index layer in
  Obs.bump t.obs t.ctr_msgs.(li);
  Obs.add t.obs t.ctr_payload.(li) payload_bytes;
  Obs.add t.obs t.ctr_wire.(li) wire_bytes;
  if kind < Array.length t.ctr_kinds then Obs.bump t.obs t.ctr_kinds.(kind)
  else Obs.incr t.obs ("net.kind_msgs." ^ Net_stats.kind_name t.stats kind);
  if Obs.tracing t.obs then
    Obs.span t.obs ~parent ~pid:src ~layer ~phase:"tx" ~detail:(tx_detail t ~kind ~dst msg)
  else Obs.Span.no_parent

(* A sender that is past its crash budget silently loses the message; this
   is how a crash "in the middle of" a broadcast manifests. *)
let sender_alive node =
  if node.crashed then false
  else
    match node.sends_before_crash with
    | None -> true
    | Some 0 ->
      node.crashed <- true;
      false
    | Some k ->
      node.sends_before_crash <- Some (k - 1);
      true

let deliver_local t ~src msg =
  let sender = t.nodes.(src) in
  (* The span context is captured now, at hand-off, because the handler
     runs from the scheduler where the ambient context is already gone. *)
  let parent = Obs.span_ctx t.obs in
  if not sender.crashed then
    Engine.post_after t.engine Time.span_zero (fun () ->
        if not sender.crashed then
          match sender.handler with
          | Some handler ->
            if Obs.tracing t.obs then begin
              let local =
                Obs.span t.obs ~parent ~pid:src ~layer:(t.layer_of msg)
                  ~phase:"local" ~detail:(t.kind_of msg)
              in
              Obs.set_span_ctx t.obs local
            end;
            handler ~src msg;
            Obs.set_span_ctx t.obs Obs.Span.no_parent
          | None -> ())

(* One admitted copy through the NIC towards [dst]: serialize at wire
   bandwidth, account, draw loss/jitter, respect cuts, schedule the
   arrival. Runs inside the sender's marshalling completion, once per
   destination, in destination order — the RNG draw order (at most one
   loss draw then one jitter draw per copy, each behind its own guard) is
   part of the determinism contract. Adversary draws (corrupt, reorder,
   duplicate — likewise each behind a nonzero-knob guard) come from the
   adversary's private stream, so an armed-but-idle adversary leaves the
   base draws, and hence the whole run, untouched. [adv_drop] marks a
   copy the message adversary suppressed at fan-out: it is charged to the
   NIC like a randomly lost copy (it left the sender) and then
   vanishes. *)
let transmit_copy t ?(adv_drop = false) ~src ~dst ~payload_bytes ~parent msg =
  let sender = t.nodes.(src) in
  (* Corruption mutates the copy before accounting, so receiver and
     statistics both see the tampered message. *)
  let msg =
    match t.adversary with
    | Some adv
      when adv.corrupt_rate > 0.0
           && Repro_sim.Rng.float adv.adv_rng 1.0 < adv.corrupt_rate -> (
      match adv.mutators.corrupt msg with
      | Some tampered ->
        adv.corrupted <- adv.corrupted + 1;
        if Obs.enabled t.obs then Obs.incr t.obs "net.adv.corrupted";
        tampered
      | None -> msg)
    | _ -> msg
  in
  let now = Engine.now t.engine in
  let tx_start = Time.max sender.nic_free_at now in
  let tx_time = Wire.tx_time t.wire ~payload_bytes in
  let tx_end = Time.add tx_start tx_time in
  sender.nic_free_at <- tx_end;
  sender.nic_busy_ns <- sender.nic_busy_ns + Time.span_to_ns tx_time;
  let kind = t.kind_index msg in
  let kind = if kind >= 0 then kind else Net_stats.kind_slot t.stats (t.kind_of msg) in
  let wire_bytes = Wire.on_wire_bytes t.wire ~payload_bytes in
  Net_stats.record_send t.stats ~src ~kind ~payload_bytes ~wire_bytes;
  let tx_sid =
    if Obs.enabled t.obs then
      record_tx t ~parent ~src ~dst msg ~kind ~payload_bytes ~wire_bytes
    else Obs.Span.no_parent
  in
  if adv_drop then begin
    (match t.adversary with
    | Some adv -> adv.dropped <- adv.dropped + 1
    | None -> ());
    if Obs.enabled t.obs then Obs.incr t.obs "net.adv.dropped"
  end;
  let dropped =
    adv_drop
    || (t.loss_rate > 0.0 && Repro_sim.Rng.float t.rng 1.0 < t.loss_rate)
  in
  if (not t.cut.(src).(dst)) && not dropped then begin
    let latency = Topology.latency t.topology ~src ~dst in
    let jitter =
      let bound = Time.span_to_ns t.wire.Wire.propagation_jitter in
      if bound = 0 then Time.span_zero
      else Time.span_ns (Repro_sim.Rng.int t.rng (bound + 1))
    in
    let arrival =
      Time.add (Time.add (Time.add tx_end latency) jitter) t.extra_delay
    in
    (* FIFO clamp: never overtake an earlier message on this link. *)
    let arrival = Time.max arrival t.last_arrival.(src).(dst) in
    t.last_arrival.(src).(dst) <- arrival;
    (* Adversarial reordering: an extra per-copy delay drawn {e after} the
       FIFO clamp and excluded from it, so a delayed copy can be overtaken
       by later traffic on the same link — channels stop being FIFO while
       the window is open. *)
    let arrival =
      match t.adversary with
      | Some adv when Time.span_to_ns adv.reorder_window > 0 ->
        let extra =
          Repro_sim.Rng.int adv.adv_rng
            (Time.span_to_ns adv.reorder_window + 1)
        in
        if extra > 0 then begin
          adv.reordered <- adv.reordered + 1;
          if Obs.enabled t.obs then Obs.incr t.obs "net.adv.reordered"
        end;
        Time.add arrival (Time.span_ns extra)
      | _ -> arrival
    in
    Engine.post_at t.engine arrival (fun () ->
        deliver t ~src ~dst ~sid:tx_sid msg);
    (* Adversarial duplication: a second arrival of the same copy shortly
       after the first, also outside the FIFO clamp. *)
    match t.adversary with
    | Some adv
      when adv.duplicate_rate > 0.0
           && Repro_sim.Rng.float adv.adv_rng 1.0 < adv.duplicate_rate ->
      adv.duplicated <- adv.duplicated + 1;
      if Obs.enabled t.obs then Obs.incr t.obs "net.adv.duplicated";
      Engine.post_at t.engine
        (Time.add arrival (Time.span_us 1))
        (fun () -> deliver t ~src ~dst ~sid:tx_sid msg)
    | _ -> ()
  end
  else if Obs.enabled t.obs then begin
    Obs.bump t.obs t.ctr_dropped;
    if Obs.tracing t.obs then
      ignore
        (Obs.span t.obs ~parent:tx_sid ~pid:src ~layer:(t.layer_of msg)
           ~phase:"drop" ~detail:(t.kind_of msg))
  end

let marshal_cost t ~payload_bytes ~copies =
  Time.span_add
    (Time.span_ns (payload_bytes * t.wire.Wire.send_cpu_per_byte_ns))
    (Time.span_scale copies t.wire.Wire.send_cpu_fixed)

(* Per-multicast adversary effects, applied in destination order inside
   the marshalling completion. Two budgeted powers act on the fan-out as a
   whole rather than per copy:
   - drop budget: suppress up to [drop_budget] copies of this multicast,
     victims chosen by shuffling the destination indices — but never all
     copies, one always survives (the adversary of the BRB literature may
     silence a minority of each broadcast, not erase it);
   - equivocation: substitute a well-formed alternate payload on some
     copies while at least the first surviving destination keeps the
     original, so different receivers see conflicting contents for the
     same logical broadcast.
   Every draw is behind a nonzero-knob guard and comes from the adversary
   stream; with all knobs zero this degenerates to exactly the plain
   [List.iter transmit_copy] it replaced. *)
let fanout t adv ~src ~payload_bytes ~parent ~copies dsts msg =
  let drops = Array.make copies false in
  if adv.drop_budget > 0 && copies > 1 then begin
    let victims = min adv.drop_budget (copies - 1) in
    let k = Repro_sim.Rng.int adv.adv_rng (victims + 1) in
    if k > 0 then begin
      let idx = Array.init copies (fun i -> i) in
      Repro_sim.Rng.shuffle_in_place adv.adv_rng idx;
      for i = 0 to k - 1 do
        drops.(idx.(i)) <- true
      done
    end
  end;
  let alt =
    if
      adv.equivocate_rate > 0.0
      && Repro_sim.Rng.float adv.adv_rng 1.0 < adv.equivocate_rate
    then adv.mutators.equivocate msg
    else None
  in
  let original_kept = ref false in
  List.iteri
    (fun i dst ->
      let adv_drop = drops.(i) in
      let msg, payload_bytes =
        match alt with
        | Some alt_msg
          when (not adv_drop) && !original_kept
               && Repro_sim.Rng.bool adv.adv_rng ->
          adv.equivocated <- adv.equivocated + 1;
          if Obs.enabled t.obs then Obs.incr t.obs "net.adv.equivocated";
          (alt_msg, t.payload_bytes alt_msg)
        | _ ->
          if not adv_drop then original_kept := true;
          (msg, payload_bytes)
      in
      transmit_copy t ~adv_drop ~src ~dst ~payload_bytes ~parent msg)
    dsts

(* Push admitted copies through the NIC after one marshalling charge on the
   sender's CPU. Admission is the crash point: a copy accepted here reaches
   the wire even if the sender crashes moments later (kernel buffers
   flush), which is exactly what [crash_after_sends] relies on. *)
let transmit t ~src ~dsts ~copies msg =
  let sender = t.nodes.(src) in
  let payload_bytes = t.payload_bytes msg in
  let parent = Obs.span_ctx t.obs in
  Cpu.submit sender.cpu ~cost:(marshal_cost t ~payload_bytes ~copies)
    (fun () ->
      match t.adversary with
      | Some adv -> fanout t adv ~src ~payload_bytes ~parent ~copies dsts msg
      | None ->
        List.iter
          (fun dst -> transmit_copy t ~src ~dst ~payload_bytes ~parent msg)
          dsts)

(* The point-to-point fast path: no destination list at all. *)
let transmit_one t ~src ~dst msg =
  let sender = t.nodes.(src) in
  let payload_bytes = t.payload_bytes msg in
  let parent = Obs.span_ctx t.obs in
  Cpu.submit sender.cpu ~cost:(marshal_cost t ~payload_bytes ~copies:1)
    (fun () -> transmit_copy t ~src ~dst ~payload_bytes ~parent msg)

let count_remote dsts src =
  List.fold_left (fun acc dst -> if dst = src then acc else acc + 1) 0 dsts

let multicast t ~src ~dsts msg =
  let sender = t.nodes.(src) in
  (* Local delivery: no wire, no CPU charge, no statistics. *)
  if (not sender.crashed) && List.exists (fun dst -> dst = src) dsts then
    deliver_local t ~src msg;
  match sender.sends_before_crash with
  | None when not sender.crashed ->
    (* No crash budget armed — every remote copy is admitted, and when
       [dsts] has no self entry (the broadcast path) the caller's list is
       reused as is. *)
    let copies = count_remote dsts src in
    if copies > 0 then
      let remote =
        if copies = List.length dsts then dsts
        else List.filter (fun dst -> dst <> src) dsts
      in
      transmit t ~src ~dsts:remote ~copies msg
  | _ ->
    (* The crash budget is consumed copy by copy, in destination order, so
       a crash can land in the middle of the fan-out. *)
    let remote = List.filter (fun dst -> dst <> src) dsts in
    let admitted = List.filter (fun _ -> sender_alive sender) remote in
    if admitted <> [] then
      transmit t ~src ~dsts:admitted ~copies:(List.length admitted) msg

let send t ~src ~dst msg =
  if dst = src then begin
    if not t.nodes.(src).crashed then deliver_local t ~src msg
  end
  else if sender_alive t.nodes.(src) then transmit_one t ~src ~dst msg

let send_to_others t ~src msg = multicast t ~src ~dsts:t.others.(src) msg
let stats t = t.stats

(* ---- Snapshot ----

   The section carries every enumerable knob and counter; the bulk
   payload carries the matrices, per-node NIC accounting and the RNG
   stream states. Handler closures and in-flight arrival events ride the
   world blob. *)

type node_data = {
  d_nic_free_ns : int;
  d_nic_busy_ns : int;
  d_crashed : bool;
  d_sends_before_crash : int option;
}

type net_data = {
  d_last_arrival : int array array;
  d_cut : bool array array;
  d_nodes : node_data array;
  d_rng : Snapshot.section;
  d_adv_rng : Snapshot.section option;
  d_stats : Net_stats.dump;
}

let snapshot t =
  let count_row acc row =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row
  in
  let adv_fields =
    match t.adversary with
    | None -> [ ("adversary", Snapshot.Bool false) ]
    | Some a ->
      [
        ("adversary", Snapshot.Bool true);
        ("adv.drop_budget", Snapshot.Int a.drop_budget);
        ("adv.corrupt_rate", Snapshot.Float a.corrupt_rate);
        ("adv.duplicate_rate", Snapshot.Float a.duplicate_rate);
        ("adv.reorder_window_ns", Snapshot.Int (Time.span_to_ns a.reorder_window));
        ("adv.equivocate_rate", Snapshot.Float a.equivocate_rate);
        ("adv.dropped", Snapshot.Int a.dropped);
        ("adv.corrupted", Snapshot.Int a.corrupted);
        ("adv.duplicated", Snapshot.Int a.duplicated);
        ("adv.reordered", Snapshot.Int a.reordered);
        ("adv.equivocated", Snapshot.Int a.equivocated);
      ]
  in
  let data =
    Snapshot.pack
      {
        d_last_arrival = Array.map (Array.map Time.to_ns) t.last_arrival;
        d_cut = Array.map Array.copy t.cut;
        d_nodes =
          Array.map
            (fun nd ->
              {
                d_nic_free_ns = Time.to_ns nd.nic_free_at;
                d_nic_busy_ns = nd.nic_busy_ns;
                d_crashed = nd.crashed;
                d_sends_before_crash = nd.sends_before_crash;
              })
            t.nodes;
        d_rng = Repro_sim.Rng.snapshot ~name:"net.rng" t.rng;
        d_adv_rng =
          Option.map
            (fun a -> Repro_sim.Rng.snapshot ~name:"net.adv_rng" a.adv_rng)
            t.adversary;
        d_stats = Net_stats.dump t.stats;
      }
  in
  Snapshot.make ~name:"net.network" ~version:1 ~data
    ([
       ("n", Snapshot.Int (Array.length t.nodes));
       ("loss_rate", Snapshot.Float t.loss_rate);
       ("extra_delay_ns", Snapshot.Int (Time.span_to_ns t.extra_delay));
       ( "crashed",
         Snapshot.Int
           (Array.fold_left
              (fun acc nd -> if nd.crashed then acc + 1 else acc)
              0 t.nodes) );
       ("cut_links", Snapshot.Int (Array.fold_left count_row 0 t.cut));
       ("msgs_sent", Snapshot.Int (Net_stats.snapshot t.stats).Net_stats.messages);
     ]
    @ adv_fields)
