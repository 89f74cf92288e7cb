open Repro_core

(** Executes a {!Schedule} against a live group.

    Installing a schedule registers one engine event per step, at the
    step's timestamp relative to the installation instant; each event
    applies its fault through the network's injection primitives
    ({!Repro_net.Network.crash_after_sends}, [cut], [heal], [partition],
    [heal_all], [set_loss_rate], [set_extra_delay], and the
    message-adversary knobs [set_adv_drop_budget], [set_corrupt_rate],
    [set_duplicate_rate], [set_reorder_window], [set_equivocate_rate]) or
    through {!Group.crash} (so a crashed replica also stops heartbeating
    and discards queued offers).

    The nemesis never consumes randomness and the engine executes its
    events deterministically, so a (seed, schedule) pair reproduces a run
    bit-for-bit — the property the campaign shrinker relies on. *)

type t

val install : ?obs:Repro_obs.Obs.t -> Group.t -> Schedule.t -> (t, string) result
(** Validate the plan against the group ({!Schedule.validate} with the
    group's [n]) and, on success, schedule every step. A bad plan is an
    [Error] before any event is registered — nothing is half-installed.
    Plans containing adversary actions ({!Schedule.uses_adversary}) arm
    the message adversary ({!Adversary.arm}) as part of installation.
    [obs] (default: the group would normally share its sink) records one
    root [`Net]-layer [fault] span per applied action. *)

val install_exn : ?obs:Repro_obs.Obs.t -> Group.t -> Schedule.t -> t
(** {!install}, raising [Invalid_argument] on a bad plan — for callers
    that validated already (the campaign runner). *)

val applied : t -> Schedule.step list
(** Steps applied so far, oldest first (for assertions and reporting). *)
