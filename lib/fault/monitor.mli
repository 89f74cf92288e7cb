open Repro_sim
open Repro_net
open Repro_core

(** Continuous invariant monitoring for atomic broadcast under faults.

    A monitor watches every adelivery of a run and checks the abcast
    contract {e online}, in O(1) per delivery:

    - {b integrity} — no process delivers the same message twice;
    - {b total order} — all delivery sequences are prefix-compatible at
      all times;
    - {b validity} — every delivered message was actually abcast (its
      per-origin sequence number is below the origin's admitted count).

    Under an armed message adversary two more online checks apply:

    - {b corruption detection} — every tampered copy the adversary
      injected must be caught by checksums; one processed as genuine is
      a silent-corruption violation ({!note_tamper});
    - {b equivocation agreement} — every process adelivering an identity
      must see the same content fingerprint as the first process that
      did ({!observe}'s [fingerprint]).

    Two more invariants only make sense once the run has settled, so
    {!check_final} verifies them at the end:

    - {b uniform agreement} — the correct processes' delivery sequences
      are {e equal}, not merely prefix-compatible;
    - {b liveness of the correct majority} — when the correct processes
      form a majority, each of them delivered at least [min_delivered]
      messages {e and} every message admitted by a correct process was
      delivered (a crashed process' messages may be lost; a correct
      one's may not).

    Violations are recorded, not raised, and each report carries the
    virtual time, the run's seed and the offending fault schedule — the
    triple that reproduces the run bit-for-bit.

    The monitor is the repository's one delivery-order checker: tests
    that only need total order on a good run attach it too and read
    {!violations} after {!check_final}. *)

type invariant =
  | Integrity
  | Total_order
  | Agreement
  | Validity
  | Liveness
  | Corruption
  | Equivocation

val invariant_name : invariant -> string
(** ["integrity"], ["total-order"], ["agreement"], ["validity"],
    ["liveness"], ["corruption"], ["equivocation"]. *)

type violation = {
  at : Time.t;  (** Virtual instant the violation was detected. *)
  invariant : invariant;
  at_process : Pid.t;
  detail : string;
}

type t

val create : ?seed:int -> ?schedule:Schedule.t -> n:int -> unit -> t
(** A fresh monitor for [n] processes. [seed] (default 0) and [schedule]
    (default empty) are carried into violation reports. *)

val attach : t -> Group.t -> unit
(** Observe every adelivery of the group (with the payload size as its
    content fingerprint) and every tampered copy reaching a replica
    ({!Group.on_tamper}), stamp violations with the group's virtual
    clock, and validate sequence numbers against the replicas' admitted
    counts. *)

val observe : t -> ?fingerprint:int -> Pid.t -> App_msg.id -> unit
(** Feed one adelivery by hand (used by tests that replay — possibly
    corrupted — delivery logs without a live group). [fingerprint]
    (default: none, which skips the check) is an integer digest of the
    delivered content; processes disagreeing on a given identity's
    fingerprint is an equivocation violation. *)

val note_tamper : t -> Pid.t -> detected:bool -> unit
(** Record one adversary-tampered copy reaching a process. [detected]
    false — the copy was processed as genuine — is a corruption
    violation; true just counts (detection {e is} the graceful path). *)

val tampered_detected : t -> int
val tampered_silent : t -> int

val check_final : t -> correct:Pid.t list -> ?min_delivered:int -> unit -> unit
(** Run the end-of-run checks (agreement always; liveness only if
    [correct] is a majority of n). [min_delivered] defaults to 1. *)

val violations : t -> violation list
(** All violations, oldest first. *)

val first_violation : t -> violation option

(** How a run degraded under its faults, coarsened to the three classes
    the robustness study tabulates. *)
type degradation =
  | Live  (** No violations: full service under the adversary. *)
  | Safe_stall
      (** Liveness violations only: the stack stopped delivering (or
          lost admitted messages) but never lied — the graceful failure
          mode. *)
  | Safety_violation
      (** At least one safety invariant (integrity, total order,
          agreement, validity, corruption, equivocation) broken:
          ungraceful. *)

val classify : t -> degradation
(** Classify the run from the violations recorded so far (call after
    {!check_final}). *)

val degradation_name : degradation -> string
(** ["live"], ["safe-stall"], ["safety-violation"]. *)

val seed : t -> int
val schedule : t -> Schedule.t
val delivered_count : t -> Pid.t -> int

val log : t -> Pid.t -> App_msg.id list
(** The observed delivery sequence of one process, oldest first. *)

val pp_violation : violation Fmt.t
(** One line: invariant, process, virtual time, detail. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["fault.monitor"]. The ["violations"] count field
    is the key [repro bisect] binary-searches over the frame log; the bulk
    payload carries the full delivery logs, global order, fingerprints and
    violation records. *)
