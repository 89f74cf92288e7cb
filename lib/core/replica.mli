open Repro_net
open Repro_fd
open Repro_framework

(** One process of the group: a composed protocol stack on a simulated
    machine.

    A replica owns the application-side offer queue and flow control
    (shared by both stacks, §5.1), a failure detector, and either the
    modular composition (ABcast + Consensus + RBcast microprotocols bound
    over an event bus) or the monolithic module. It registers itself as the
    network handler for its pid and demultiplexes incoming wire messages to
    the mounted modules — each hand-over crossing the framework boundary at
    the configured dispatch cost. *)

type kind =
  | Modular  (** ABcast / Consensus / RBcast composed over the framework (§3). *)
  | Monolithic  (** The merged §4 stack. *)
  | Indirect
      (** Modular, but with the widened consensus interface of the related
          work [12]: consensus orders message identifiers while payloads
          travel once ({!Abcast_indirect}). *)

type fd_mode =
  [ `Good_run  (** No failure detection at all: no heartbeats, no
                   suspicions. The benchmark setting (§5.1 measures good
                   runs only). *)
  | `Heartbeat of Heartbeat_fd.config  (** Live ◇P detection. *) ]

type t

val create :
  kind:kind ->
  params:Params.t ->
  net:Wire_msg.t Network.t ->
  me:Pid.t ->
  ?fd_mode:fd_mode ->
  ?record_deliveries:bool ->
  ?on_adeliver:(App_msg.t -> unit) ->
  ?on_tamper:(detected:bool -> unit) ->
  ?obs:Repro_obs.Obs.t ->
  unit ->
  t
(** Build and wire the replica. [fd_mode] defaults to [`Good_run];
    [record_deliveries] (default [true]) keeps the full in-order delivery
    log in memory for assertions. [on_adeliver] observes every adelivered
    message (after internal bookkeeping). [on_tamper] (default: ignore)
    observes every {!Wire_msg.Tampered} copy that reaches this replica;
    the receiver's checksum always catches it and discards the copy, so
    [detected] is [true].

    [obs] (default: no-op) is handed to every mounted protocol module (see
    their [create] docs for the metric names) and additionally records an
    [`App]-layer [adeliver] span per delivered message at this process,
    and a [drop] span (detail [checksum: <kind>]) per tampered copy the
    checksum discards. *)

val me : t -> Pid.t
val kind : t -> kind

val abcast : t -> size:int -> unit
(** Offer one message of [size] bytes. Admission is immediate if the
    flow-control window has room, otherwise the offer queues and is
    admitted (and timestamped) when a slot frees — the paper's "blocks
    further abcast events" semantics. *)

val offered : t -> int
(** Messages offered so far. *)

val admitted : t -> int
(** Messages admitted (abcast events completed, each stamping its [t0]). *)

val delivered_count : t -> int
(** Messages adelivered at this replica. *)

val instances_decided : t -> int
(** Consensus instances adelivered at this replica (denominator of the
    measured mean batch size M). *)

val deliveries : t -> App_msg.id list
(** The delivery log, oldest first. Empty if recording is off. *)

val queued_offers : t -> int
(** Offers waiting for a flow-control slot. *)

val stack : t -> Stack.t
(** The framework composition (modules, boundary-crossing count). *)

val crash : t -> unit
(** Crash this process: network I/O stops, heartbeating stops, queued
    offers are discarded. *)

(** {2 Snapshots} *)

val snapshot : t -> Repro_sim.Snapshot.section
(** The replica's own section, ["core.replica.p<me>"]: admission queue,
    sequence allocator, delivery log and crash flag. *)

val restore : t -> Repro_sim.Snapshot.section -> unit
(** @raise Repro_sim.Snapshot.Codec_error on mismatch (including a
    snapshot taken with a different stack kind). *)

val sections : t -> Repro_sim.Snapshot.section list
(** Every mounted module's section in a fixed order: replica, flow
    control, reliable channel (lossy transport only), failure detector (if
    any), event bus, then the stack's protocol modules top-down. *)

val restore_sections : t -> Repro_sim.Snapshot.section list -> unit
(** Re-seat every mounted module from [sections]-shaped output. Sections
    for modules this replica does not mount are ignored; sections it does
    mount must be present.
    @raise Repro_sim.Snapshot.Codec_error on a missing section or any
    per-module mismatch. *)
