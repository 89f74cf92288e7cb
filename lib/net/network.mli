open Repro_sim

(** Simulated cluster network with quasi-reliable channels.

    Models the paper's testbed (§5.3.1): n dedicated machines on a switched
    Gigabit Ethernet, connected pairwise by TCP. Each process owns

    - a single-core {!Cpu} charged for every send and receive
      (per-message fixed cost plus per-byte cost), and
    - a NIC that serializes outgoing messages at wire bandwidth.

    A message from [p] to [q] therefore experiences: [p]'s CPU queue, [p]'s
    NIC queue, transmission time, propagation delay, [q]'s CPU queue — and
    only then reaches [q]'s handler. Channels between correct processes are
    quasi-reliable and FIFO (§2.1), exactly the guarantee TCP gives the
    paper's stacks.

    Fault injection: processes can crash (silently and permanently, §2.1),
    optionally part-way through a multi-send so that broadcast atomicity
    violations can be exercised; directed links can be cut and healed to
    test failure-detector behaviour. Neither facility is used in good-run
    benchmarks.

    {2 Determinism obligations}

    - Delivery instants are a pure function of the send history and the
      wire/topology constants; optional jitter draws come from the
      engine's seeded {!Rng} stream, never ambient randomness.
    - Per-link FIFO is preserved even under jitter (arrival times are
      clamped to the link's previous arrival), and multi-destination sends
      iterate destinations in ascending pid order, so the event queue sees
      the same insertion sequence every run.
    - Internal per-process state lives in plain arrays indexed by pid;
      no hash-ordered iteration can leak into delivery order. *)

type 'msg t
(** A network carrying messages of type ['msg]. *)

val create :
  Engine.t ->
  ?wire:Wire.t ->
  ?topology:Topology.t ->
  ?kind_names:string array ->
  ?kind_index:('msg -> int) ->
  ?kind_of:('msg -> string) ->
  ?layer_of:('msg -> Repro_obs.Obs.layer) ->
  ?obs:Repro_obs.Obs.t ->
  n:int ->
  payload_bytes:('msg -> int) ->
  unit ->
  'msg t
(** [create engine ~n ~payload_bytes ()] builds an [n]-process cluster.
    [payload_bytes] gives the serialized size of a message, used for both
    timing and traffic accounting. [kind_of] (default: constant ["msg"])
    labels messages for the per-kind statistics and the trace. Kinds known
    in advance are counted by slot: [kind_index m] is [m]'s position in
    [kind_names] (default: empty), or [-1] for a kind outside that table
    (the default), which is then counted under [kind_of m] on a slower
    path. The three must agree: [kind_names.(kind_index m) = kind_of m]
    whenever [kind_index m >= 0] ([Msg] and [Wire_msg] derive their
    [kind] from their table, so theirs do). [topology] overrides the wire model's uniform propagation
    latency per link.

    [obs] (default: the no-op sink) receives layer-attributed traffic
    counters ([net.msgs.<layer>], [net.payload_bytes.<layer>],
    [net.wire_bytes.<layer>], [net.kind_msgs.<kind>], [net.dropped_msgs])
    and per-copy spans (phases [tx], [rx], [drop]); [layer_of]
    (default: constant [`Net]) attributes each message to its protocol
    layer for that accounting. *)

val n : _ t -> int
(** Number of processes in the (static) system. *)

val engine : _ t -> Engine.t
(** The engine driving this network. *)

val wire : _ t -> Wire.t
(** The wire cost model in force. *)

val register : 'msg t -> Pid.t -> (src:Pid.t -> 'msg -> unit) -> unit
(** Install the receive handler for a process. Replaces any previous
    handler. Messages arriving for a process with no handler are dropped. *)

val send : 'msg t -> src:Pid.t -> dst:Pid.t -> 'msg -> unit
(** Transmit a message. A self-send ([src = dst]) is delivered locally
    after the engine's next scheduling point, costs no CPU or wire time and
    is not counted in the traffic statistics. Sends by crashed processes
    and deliveries to crashed processes vanish silently. *)

val multicast : 'msg t -> src:Pid.t -> dsts:Pid.t list -> 'msg -> unit
(** Send one copy to each destination (self entries are delivered
    locally). The sender's CPU marshals the message {e once} (one per-byte
    charge plus one fixed charge per destination); the NIC then serializes
    one copy per destination — the cost structure of a process fanning one
    buffer out over n-1 TCP connections, and the reason a large-group
    coordinator saturates its NIC before its CPU. *)

val send_to_others : 'msg t -> src:Pid.t -> 'msg -> unit
(** {!multicast} to every process except [src], in ascending pid order. *)

val cpu : _ t -> Pid.t -> Cpu.t
(** The CPU of a process, so protocol layers can charge their own
    processing costs (e.g. framework dispatch) to the same core. *)

val nic_busy_time : _ t -> Pid.t -> Time.span
(** Cumulative time the process's NIC has spent transmitting — the probe
    that shows when a coordinator becomes line-rate-bound (see
    EXPERIMENTS.md on Fig. 10). *)

val crash : _ t -> Pid.t -> unit
(** Crash a process now: all its subsequent sends and receives vanish. *)

val crash_after_sends : _ t -> Pid.t -> int -> unit
(** Crash a process after it initiates [k] more point-to-point sends. With
    [k] smaller than the fan-out, this crashes a process in the middle of a
    broadcast — the scenario that distinguishes reliable broadcast from
    plain send-to-all (§3.3). *)

val is_crashed : _ t -> Pid.t -> bool
(** Whether the process has crashed. *)

val set_loss_rate : _ t -> float -> unit
(** Drop each transmitted copy independently with the given probability
    (0.0 by default). While nonzero, channels are only {e fair-lossy} —
    the §2.1 quasi-reliability assumption is violated, so this is for
    exercising the {!Rchannel} layer (which rebuilds quasi-reliable FIFO
    channels on top) and failure-detector stress, never for protocol
    benchmarks. @raise Invalid_argument outside [0, 1). *)

val cut : _ t -> src:Pid.t -> dst:Pid.t -> unit
(** Drop all messages subsequently sent on the directed link. In-flight
    messages still arrive. Violates quasi-reliability while in force; for
    failure-detector tests only. *)

val heal : _ t -> src:Pid.t -> dst:Pid.t -> unit
(** Undo {!cut} for the directed link. *)

val partition : _ t -> Pid.t list list -> unit
(** [partition t blocks] cuts, in both directions, every link between
    processes in different blocks (a symmetric group partition built from
    the directed {!cut} primitive). Processes absent from every block form
    implicit singleton blocks. Links inside a block are untouched, as are
    links already cut. Undo with {!heal_all}.
    @raise Invalid_argument on an out-of-range pid or a pid listed twice. *)

val heal_all : _ t -> unit
(** Heal every cut link (whether cut directly or via {!partition}). *)

val set_extra_delay : _ t -> Time.span -> unit
(** Add a fixed extra propagation delay to every copy transmitted from now
    on (a delay spike). Zero by default; set back to {!Time.span_zero} to
    end the spike. Per-link FIFO is preserved. In force, message delays
    exceed the good-run bounds, so failure detectors may wrongly suspect —
    which is the point. *)

val extra_delay : _ t -> Time.span
(** The delay spike currently in force. *)

(** {2 Message adversary}

    A channel-level adversary over the quasi-reliable network, armed by the
    fault layer (never in benchmark runs). The adversary owns a {e private}
    RNG stream and every one of its draws sits behind a nonzero-knob
    guard, so an armed adversary with all knobs at zero is event-for-event
    identical to no adversary at all — the non-perturbation contract the
    fault tests pin down. Because the network is generic in ['msg], the
    armer supplies the two payload mutators: [corrupt] wraps a copy in a
    detectable tamper envelope (return [None] to leave it untouched),
    [equivocate] builds a well-formed alternate payload for the same
    logical broadcast (return [None] when the message carries no payload
    worth lying about). *)

type adversary_stats = {
  adv_dropped : int;  (** copies suppressed by the drop budget *)
  adv_corrupted : int;  (** copies tampered in flight *)
  adv_duplicated : int;  (** extra deliveries injected *)
  adv_reordered : int;  (** copies delayed past the FIFO clamp *)
  adv_equivocated : int;  (** copies substituted with the alternate payload *)
}

val arm_adversary :
  'msg t ->
  seed:int ->
  corrupt:('msg -> 'msg option) ->
  equivocate:('msg -> 'msg option) ->
  unit
(** Arm the message adversary with all knobs at zero and counters at zero.
    Idempotent: re-arming an armed network is a no-op. [seed] is the run
    seed; the adversary derives its own dedicated stream from it
    ({!Rng.derive} under a module-private salt) without touching the
    engine's stream, so arming an idle adversary perturbs nothing. *)

val adversary_armed : _ t -> bool
(** Whether {!arm_adversary} has been called. *)

val set_adv_drop_budget : _ t -> int -> unit
(** Allow the adversary to suppress up to [d] copies of each subsequent
    multicast (victims drawn per multicast; at least one copy always
    survives, and point-to-point sends — including {!Rchannel}
    retransmissions — are never subject to the budget, so suppressed
    traffic is recoverable). [0] disarms the power.
    @raise Invalid_argument on a negative budget or an unarmed network. *)

val set_corrupt_rate : _ t -> float -> unit
(** Tamper each transmitted copy independently with the given probability,
    via the armer's [corrupt] mutator.
    @raise Invalid_argument outside [0, 1) or on an unarmed network. *)

val set_duplicate_rate : _ t -> float -> unit
(** Deliver each admitted copy twice with the given probability (the second
    arrival lands shortly after the first, outside the FIFO clamp).
    @raise Invalid_argument outside [0, 1) or on an unarmed network. *)

val set_reorder_window : _ t -> Time.span -> unit
(** Add a uniform extra delay in [0, w] to each admitted copy, applied
    {e after} the per-link FIFO clamp and excluded from it — while the
    window is open, channels stop being FIFO. {!Time.span_zero} disarms.
    @raise Invalid_argument on a negative span or an unarmed network. *)

val set_equivocate_rate : _ t -> float -> unit
(** For each multicast, with the given probability, substitute the armer's
    [equivocate] payload on a coin-flipped subset of the surviving copies
    (the first surviving destination always keeps the original), so
    different receivers see conflicting contents for the same logical
    broadcast. @raise Invalid_argument outside [0, 1) or on an unarmed
    network. *)

val adversary_stats : _ t -> adversary_stats
(** Cumulative injection counts since arming (all zero when unarmed). *)

val stats : _ t -> Net_stats.t
(** Live traffic counters (see {!Net_stats}). *)

val snapshot : 'msg t -> Repro_sim.Snapshot.section
(** The ["net.network"] section: loss/delay knobs, per-node crash and NIC
    accounting, link matrices, traffic statistics, base and adversary RNG
    stream states, adversary knobs and counters. *)
