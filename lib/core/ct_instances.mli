open Repro_sim
open Repro_net
open Repro_fd

(** The Chandra–Toueg instance bookkeeping shared by the three engines
    that run it: {!Consensus}, {!Consensus_classic} and
    {!Abcast_monolithic}.

    A plain helper like {!Batch}: it holds what the engines do the same
    way — the per-instance record and its per-round tables, the instance
    table, the decision log, the decision bookkeeping and the gap-driven
    catch-up timer — and none of their round policy. Each engine keeps
    its own per-instance state in the record's ['x] parameter: an
    immutable value replaced as the state changes, rather than a second
    mutable record per instance.

    The table holds live instances only. {!decide} moves an instance out
    of it into a dense decision log indexed by instance (holes allowed)
    that keeps its batch and the round it decided in, nothing else. An
    engine checks {!is_logged} before it calls {!state} for a message, so a
    logged instance is answered from the log and never re-created. Code
    that still holds a decided record (a pending timer, the rest of the
    handler that decided it) sees [decided <> None], as before. *)

type 'x inst = {
  inst : int;
  created_at : Time.t;  (** first local activity *)
  mutable round : int;
  mutable estimate : Batch.t option;
  mutable ts : int;  (** round of last adoption; 0 = initial value *)
  mutable started : bool;
      (** propose () was called locally (the monolithic stack proposes
          by launching, never through this) *)
  mutable proposals : ((int * Pid.t) * Batch.t) list;  (** (round, proposer) -> value *)
  mutable acked_rounds : int list;
  mutable acks : (int * Pid.t list ref) list;  (** coordinator side, per round *)
  mutable estimates : (int * (Pid.t * (int * Batch.t)) list ref) list;
  mutable estimate_sent : int list;
  mutable proposed_rounds : int list;
  mutable solicited_rounds : int list;
  mutable decided : Batch.t option;  (** [Some] only once retired to the log *)
  mutable pending_requesters : Pid.t list;
  mutable progress_timer : Engine.timer option;
  mutable ext : 'x;  (** the engine's own per-instance state *)
}

type 'x t

val create :
  engine:Engine.t ->
  params:Params.t ->
  me:Pid.t ->
  fd:Fd.t ->
  send:(dst:Pid.t -> Msg.t -> unit) ->
  broadcast:(Msg.t -> unit) ->
  log:(module Logs.LOG) ->
  first_round:int ->
  first_ext:'x ->
  obs:Repro_obs.Obs.t ->
  layer:Repro_obs.Obs.layer ->
  decisions:Repro_obs.Obs.counter ->
  decide_ms:Repro_obs.Obs.histogram option ->
  'x t
(** A new instance starts in [first_round] with [ext = first_ext].
    {!decide} bumps [decisions], samples [decide_ms] from [created_at]
    and traces a [decide] span in [layer]. *)

(** {2 Rounds} *)

val coord : 'x t -> round:int -> Pid.t

val next_unsuspected_round : 'x t -> from:int -> int
(** The first round [>= from] whose coordinator is not suspected; [from]
    if all [n] are. *)

val proposal : 'x inst -> round:int -> proposer:Pid.t -> Batch.t option
val set_proposal : 'x inst -> round:int -> proposer:Pid.t -> Batch.t -> unit

val add_ack : 'x inst -> round:int -> src:Pid.t -> unit
val has_ack_majority : 'x t -> 'x inst -> round:int -> bool

val record_estimate : 'x inst -> round:int -> src:Pid.t -> ts:int -> value:Batch.t -> unit
(** First estimate per sender and round wins. *)

val estimates_for : 'x inst -> round:int -> (Pid.t * (int * Batch.t)) list

val coordinator_estimates : 'x t -> 'x inst -> round:int -> (Pid.t * (int * Batch.t)) list
(** {!estimates_for} plus this process's own estimate, which takes part
    without a message. *)

val choose_estimate : (Pid.t * (int * Batch.t)) list -> Batch.t option
(** Maximum lock timestamp, then larger batch, then lowest pid. *)

val own_proposal : 'x t -> 'x inst -> round:int -> Batch.t -> unit
(** Record this process's proposal for [round]: it adopts the value,
    locks it at [round] and acks it itself. *)

val solicit : 'x t -> 'x inst -> round:int -> unit
(** Broadcast [New_round] for [round], once per round. *)

(** {2 The instance table and the decision log} *)

val is_logged : 'x t -> int -> bool
(** Decided here, hence in the log. Allocates nothing. *)

val logged_round : 'x t -> int -> int
(** The round a logged instance decided in. *)

val live : 'x t -> int
(** Instances the table holds: created here and not yet decided. *)

val state : 'x t -> int -> 'x inst
(** Find or create a live instance. Never call it for a logged one. *)

val select : 'x t -> ('x inst -> bool) -> 'x inst list
(** The matching live instances in instance order. *)

val decision : 'x t -> inst:int -> Batch.t option
(** The logged batch, [None] if [inst] is not decided here. *)

val rounds_used : 'x t -> inst:int -> int
(** The decided round of a logged instance, the current round of a live
    one, 0 for an unknown one. *)

val max_decided : 'x t -> int
(** Highest decided instance; -1 before the first decision. *)

(** {2 Decisions} *)

val cancel : 'x t -> Engine.timer option -> unit

val decide : 'x t -> 'x inst -> Batch.t -> deliver:(unit -> unit) -> unit
(** Decide a live instance and retire it to the log, then cancel its
    progress timer, raise [max_decided], answer the parked requesters,
    count and trace the decision, run [deliver] inside the [decide]
    span, then arm the catch-up timer if a decided instance sits above
    an undecided one.
    That timer broadcasts [Decision_request] for up to 64 holes every
    [round1_kick] until none is left. *)

val announced_value :
  'x t -> 'x inst -> round:int -> proposer:Pid.t -> value:Batch.t option -> Batch.t option
(** The value a decision announcement for [(round, proposer)] decides
    for a live instance: the carried one, else the stored proposal.
    Without either it broadcasts [Decision_request] and returns [None]. *)

val reply_decision : 'x t -> inst:int -> dst:Pid.t -> unit
(** Send [Decision_full] to [dst] if [inst] is logged. *)

val answer_request : 'x t -> inst:int -> src:Pid.t -> unit
(** Answer [Decision_request]: reply from the log if decided, else park
    [src] on the live instance until the decision. *)

(** {2 Snapshot} *)

val snapshot :
  name:string ->
  strip:('x -> 'x) ->
  ?fields:(string * Snapshot.field) list ->
  'e ->
  'x t ->
  Snapshot.section
(** Fields [instances] (live plus logged), [decided], [max_decided],
    [catchup_from], [max_round] (over both), then [fields]. The
    payload carries the live instances in instance order (progress timer
    cleared, [ext] passed through [strip]), the decision log up to
    [max_decided], the two cursors and the engine's own data. *)
