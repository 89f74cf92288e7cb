open Repro_net

(** Reliable broadcast (§3.1).

    Guarantees that a payload is rdelivered either by all correct processes
    or by none, even if the broadcaster crashes mid-send, assuming
    quasi-reliable channels. Two variants:

    - {!Params.Classic}: every process re-sends on first receipt — about n²
      messages per broadcast;
    - {!Params.Majority}: only the ⌊(n-1)/2⌋ lowest-pid processes other
      than the origin re-send, for (n-1)·⌊(n+1)/2⌋ messages, sound under
      the majority-correct assumption the stack already makes for
      consensus. The origin plus the relayers form a majority, so at least
      one of them is correct; if the origin is correct everyone receives
      directly, and otherwise the relay of any correct member reaches all.
      (In the enclosing consensus, the corner case where only non-relayers
      receive the payload is masked by the round structure — a new round
      re-decides the locked value; cf. §3.2.)

    The module is transport-agnostic and generic in its payload so it can
    be tested in isolation: the owner supplies [send] and feeds received
    envelopes through {!receive}. *)

type 'p t

val create :
  me:Pid.t ->
  n:int ->
  variant:Params.rbcast_variant ->
  broadcast:(meta:Msg.rb_meta -> 'p -> unit) ->
  deliver:(meta:Msg.rb_meta -> 'p -> unit) ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  'p t
(** [deliver] is invoked exactly once per rdelivered payload (duplicates
    from relays are suppressed by the envelope's origin/sequence pair); it
    receives the envelope so consumers can identify the broadcaster.

    [obs] (default: no-op) counts [rbcast.broadcasts], [rbcast.delivers]
    and [rbcast.relays], and traces [rbcast]/[rdeliver] phases in the
    [`Rbcast] layer. *)

val rbcast : 'p t -> 'p -> unit
(** Broadcast a payload: deliver locally and send to every other process. *)

val receive : 'p t -> src:Pid.t -> meta:Msg.rb_meta -> 'p -> unit
(** Feed an envelope received from the network. First receipt delivers and,
    if this process is a designated relayer (or the variant is classic),
    re-sends to everyone else. *)

val relayers : n:int -> origin:Pid.t -> Pid.t list
(** The designated relay set of the majority variant: the ⌊(n-1)/2⌋
    lowest-pid processes excluding [origin]. Exposed for tests. *)

val snapshot : ?name:string -> 'p t -> Repro_sim.Snapshot.section
(** Default section name ["core.rbcast.p<me>"]; stacks that mount several
    rbcast instances pass their own. Carries the rdelivered identity set
    and the next local sequence number. *)
