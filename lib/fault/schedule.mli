open Repro_sim
open Repro_net

(** Declarative, serializable fault plans.

    A schedule is a time-ordered list of fault actions to inject into a
    running group: crashes (immediate or mid-broadcast), directed link
    cuts and heals, symmetric partitions, loss-rate windows, delay
    spikes, and the message-adversary powers (per-broadcast drop budgets,
    corruption, duplication, reordering, equivocation — see
    {!Network.arm_adversary}). Timestamps are virtual-time spans relative
    to the instant the schedule is installed (see {!Nemesis.install}).

    Schedules have a line-oriented concrete syntax so they can be stored
    in files, passed to [repro nemesis --fault-plan], printed as minimal
    reproducers by the campaign shrinker, and re-run bit-for-bit:

    {v
# one action per line; '#' starts a comment
at 100ms  crash p1
at 150ms  crash-after-sends p2 3
at 200ms  cut p1 p3
at 250ms  heal p1 p3
at 300ms  partition p1 p2 | p3
at 500ms  heal-all
at 600ms  loss 0.02
at 900ms  loss 0
at 1s     delay 2ms
at 1200ms delay 0ms
at 1.5s   adv-drop-budget 2
at 1.5s   corrupt 0.01
at 1.5s   duplicate 0.05
at 1.5s   reorder 1ms
at 1.5s   equivocate 0.02
at 2s     adv-drop-budget 0
    v}

    Times are a non-negative decimal (fractions allowed down to 1 ns:
    [1.5ms], but not [1.ms] or [.5ms]) with unit [ns], [us], [ms] or [s];
    processes use the paper's 1-based [p1] … [pn] names; [partition]
    separates blocks with [|] (unlisted processes form implicit singleton
    blocks). [validate] checks a plan up front — before any simulation
    starts — so a bad plan fails fast with a position-tagged error. *)

type action =
  | Crash of Pid.t  (** Silent, permanent crash (§2.1). *)
  | Crash_after_sends of Pid.t * int
      (** Crash after [k] more point-to-point sends — mid-broadcast with
          [k] below the fan-out (§3.3). *)
  | Cut of Pid.t * Pid.t  (** Cut the directed link src -> dst. *)
  | Heal of Pid.t * Pid.t  (** Heal the directed link src -> dst. *)
  | Partition of Pid.t list list
      (** Symmetric partition into blocks ({!Network.partition}). *)
  | Heal_all  (** Heal every cut link ({!Network.heal_all}). *)
  | Loss_rate of float
      (** Set the per-copy drop probability; a window is a pair of
          actions, [Loss_rate p] then [Loss_rate baseline]. *)
  | Delay_spike of Time.span
      (** Set the extra propagation delay; end the spike with
          [Delay_spike Time.span_zero]. *)
  | Adv_drop_budget of int
      (** Let the message adversary suppress up to [d] copies of each
          multicast ({!Network.set_adv_drop_budget}); [0] disarms. *)
  | Corrupt_rate of float
      (** Tamper each copy with this probability
          ({!Network.set_corrupt_rate}); [0] disarms. *)
  | Duplicate_rate of float
      (** Deliver each copy twice with this probability
          ({!Network.set_duplicate_rate}); [0] disarms. *)
  | Reorder_window of Time.span
      (** Delay each copy by up to this span outside the FIFO clamp
          ({!Network.set_reorder_window}); [span_zero] disarms. *)
  | Equivocate_rate of float
      (** Per multicast, substitute an alternate payload on some copies
          with this probability ({!Network.set_equivocate_rate}); [0]
          disarms. *)

type step = { at : Time.span;  (** Relative to installation. *) action : action }
type t = step list

val validate : n:int -> t -> (t, string) result
(** Check a plan against a group of [n] processes: timestamps must be
    non-decreasing, every pid in range, send budgets non-negative, loss
    and adversary rates in [0, 1), drop budgets in [0, n-2] (one copy of
    every multicast must survive), reorder windows non-negative,
    partition blocks disjoint. [Ok] returns the plan unchanged; [Error]
    carries a human-readable reason naming the offending step. *)

val crashed_pids : t -> Pid.t list
(** Processes the plan crashes (immediately or after sends), ascending
    and without duplicates — the complement of the correct set a monitor
    should check. *)

val duration : t -> Time.span
(** Timestamp of the last step ([span_zero] for the empty plan). *)

val drops_messages : t -> bool
(** Whether any step can make a message vanish in a way retransmission
    repairs: a cut, a partition, a positive loss rate, or a positive
    corrupt rate (checksummed receivers discard tampered copies). Such
    plans should mount the retransmitting {!Repro_net.Rchannel}
    ({!Params.Lossy} transport). The other adversary powers deliberately
    do {e not} count: the drop budget and equivocation grip wire-level
    multicasts, which the per-destination reliable channel replaces with
    point-to-point frames (mounting it would silently disarm them), and
    duplicated or reordered copies still arrive — absorbing them is the
    protocols' own job. Crashes and delay spikes drop nothing. *)

val uses_adversary : t -> bool
(** Whether any step is a message-adversary action (even a disarming,
    zero-valued one) — such plans need {!Network.arm_adversary} before
    they can be applied, which {!Nemesis.install} does automatically. *)

val equal : t -> t -> bool

val is_subsequence : t -> of_:t -> bool
(** Whether every step of the first plan appears, in order, in the
    second — the shrinker's contract. *)

val action_to_string : action -> string
val pp_step : step Fmt.t
val pp : t Fmt.t

val to_string : t -> string
(** The concrete plan syntax; [of_string] round-trips it exactly. *)

val of_string : string -> (t, string) result
(** Parse the plan syntax. Errors are tagged with the line number. Does
    not check pid ranges (that needs [n]) — run {!validate} next. *)

val load : string -> (t, string) result
(** Read and parse a plan file; an unreadable path is an [Error], not an
    exception. *)
