open Repro_sim
open Repro_net

(** Heartbeat-based eventually-perfect failure detector (◇P).

    Every process periodically sends a heartbeat to every other process. A
    process [q] is suspected when no heartbeat from [q] arrives within its
    current timeout. On a false suspicion — a heartbeat from a suspected
    process arrives — [q] is unsuspected and its timeout increased, so in
    any run with eventually-timely links every correct process eventually
    stops being suspected (eventual strong accuracy) while every crashed
    process is eventually suspected forever (strong completeness).

    Transport-agnostic: the owner supplies [send_heartbeat] and feeds
    incoming heartbeats through {!on_heartbeat}, so FD traffic shares the
    stack's wire type, its CPU and its NIC. *)

type t

type config = {
  period : Time.span;  (** Interval between heartbeat rounds. *)
  initial_timeout : Time.span;  (** Starting silence threshold per peer. *)
  timeout_increment : Time.span;
      (** Added to a peer's threshold after each false suspicion. *)
  timeout_decay : Time.span;
      (** Subtracted from a grown threshold on each healthy heartbeat,
          never below [initial_timeout]. Makes the detector recover its
          detection latency after a transient partition instead of staying
          permanently pessimistic. [span_zero] disables decay. *)
}

val default_config : config
(** 10 ms period, 50 ms initial timeout, 50 ms increment, 1 ms decay —
    snappy enough for tests, far above any good-run message delay; a
    timeout grown by one false suspicion decays back to the floor after
    half a second of healthy heartbeats. *)

val create :
  Engine.t ->
  config ->
  n:int ->
  me:Pid.t ->
  send_heartbeat:(dst:Pid.t -> unit) ->
  t
(** Start heartbeating and monitoring all peers. Monitoring starts with a
    fresh grace period for every peer. *)

val fd : t -> Fd.t
(** The service view consumed by protocols. *)

val on_heartbeat : t -> src:Pid.t -> unit
(** Feed one received heartbeat into the detector. *)

val stop : t -> unit
(** Stop sending heartbeats and stop updating suspicions (used when the
    owning process crashes). *)

val suspects : t -> Pid.t list
(** Current suspect list, ascending (for tests and introspection). *)

val current_timeout : t -> Pid.t -> Time.span
(** The silence threshold currently applied to one peer (for tests and
    introspection). *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["fd.heartbeat.p<me>"]. Carries per-peer adaptive
    timeouts and suspicion flags; the heartbeat loop and watchdog timers
    ride the world blob. *)
