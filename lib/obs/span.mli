open Repro_sim

(** Causal spans: the one per-step record of the observability trace.

    A span is an instantaneous, timestamped protocol step with a link to
    the step that caused it — the [parent]. Because the simulation is
    single-threaded and every event has exactly one trigger, following
    parent links from an application delivery back to the message's
    publish replays the {e critical path} of that message: the one
    causal chain whose hops sum exactly to the end-to-end latency (see
    {!Repro_analysis.Critical_path}).

    Spans are recorded through {!Obs.span}; an ambient "current span"
    carried by the sink ({!Obs.span_ctx} / {!Obs.set_span_ctx}), which a
    step reads as its parent, links spans across module boundaries, so a
    consensus step triggered by a network delivery parents to that
    delivery without any protocol interface passing ids around. *)

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]
(** Same structural type as {!Obs.layer}. *)

val layer_name : layer -> string
val layer_of_name : string -> layer option
val all_layers : layer list

type t = {
  sid : int;  (** Unique id, assigned from 1 in causal (recording) order. *)
  parent : int;  (** The causing span's [sid], or {!no_parent} for a root. *)
  at : Time.t;  (** Simulated instant (never wall time). *)
  pid : int;
  layer : layer;
  phase : string;  (** e.g. "abcast", "propose", "tx", "rx", "adeliver". *)
  detail : string;
}

val no_parent : int
(** The sentinel parent id (0) marking a chain root. *)

val is_root : t -> bool

val pp : t Fmt.t
(** Prints [#sid<-#parent p<pid+1> <layer>/<phase> <detail>]. *)

(** {1 Detail strings}

    [Printf.sprintf] interprets its format and builds the result through
    a growable buffer, ≈50–80 minor words per detail. These build the same
    text as one string of exact size: literal pieces and decimal ints
    (sign included, [min_int] too) are written straight into it. They
    keep no scratch state, so sinks in several domains may call them at
    once. *)

val detail1 : string -> int -> string -> string
(** [detail1 a x b] is [Printf.sprintf "%s%d%s" a x b]. *)

val detail2 : string -> int -> string -> int -> string -> string
(** [detail2 a x b y c] is [Printf.sprintf "%s%d%s%d%s" a x b y c]. *)

val detail3 : string -> int -> string -> int -> string -> int -> string -> string
(** [detail3 a x b y c z d] is [Printf.sprintf "%s%d%s%d%s%d%s" a x b y c z d]. *)
