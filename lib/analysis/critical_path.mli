(** Critical-path reconstruction over a causal span trace.

    Every application delivery (an [`App]/"adeliver" span) terminates a
    single-parent chain that leads back, across module and process
    boundaries, to the message's own [`App]/"publish" span: both details
    start with the message id ["m <origin>/<seq>"]. Each hop of the
    chain is a latency segment: time spent on the wire when the
    endpoints are on different processes, or time spent reaching a
    protocol step when they are on the same process.

    Under load a delivery's chain need not pass through its own publish:
    the message joins a batch or instance that an earlier message's
    chain set in motion, and that chain runs back through pipelined
    instances towards the start of the run. The walk therefore stops at
    the publish or at the first parent stamped before the publish
    instant. The post-publish part of that straddling hop is one [wait]
    segment, [child.at - publish.at]: the time the message waited for an
    instance or batch already in flight. Because segment durations are
    differences of consecutive timestamps, they telescope: per path they
    sum exactly to [delivery.at - publish.at], the message's measured
    end-to-end latency. Aggregated over a run, the breakdown attributes
    every nanosecond of delivery latency to a layer/phase, to the wire
    or to [wait], which is how the §4 optimization effects of the paper
    (piggybacked decisions, coordinator-directed acks, cheap decision
    diffusion) show up as measured time rather than message counts.

    The analysis is one pass over the trace, linear in its length: spans
    go into an array indexed by sid (sids are dense from 1), each hop's
    [layer/phase] label is interned once per span, and each path is
    walked when its delivery arrives, since its ancestors all precede it
    in sid order. A delivery whose publish span is absent (the trace was
    capped or truncated) is skipped and counted. *)

module Span = Repro_obs.Span

type segment = {
  label : string;  (** ["wire"], ["wait"] or ["<layer>/<phase>"] of the hop's child *)
  layer : string;  (** ["wire"], ["wait"] or the child span's layer name *)
  ns : int;  (** duration of the hop *)
}

type path = {
  delivery : Span.t;  (** the [`App]/"adeliver" terminus *)
  publish : int;  (** sid of the message's [`App]/"publish" span *)
  segments : segment list;  (** oldest hop first *)
  total_ns : int;  (** [delivery.at - publish.at]; equals the segment sum *)
}

val is_delivery : Span.t -> bool
(** Recognises the [`App]/"adeliver" spans that terminate paths. *)

val paths : ?pid:int -> Span.t list -> path list
(** All critical paths in a trace (spans in sid order), one per
    application delivery whose publish is in the trace, in trace order.
    [?pid] restricts to deliveries at one process (useful because every
    delivery occurs at [n] processes and would otherwise be counted [n]
    times). *)

type breakdown_row = {
  row_label : string;
  row_layer : string;
  hops : int;  (** hops bearing this label, across all paths *)
  total_ms : float;
  mean_ms : float;  (** per delivery *)
  share : float;  (** fraction of summed end-to-end time *)
}

type breakdown = {
  deliveries : int;  (** paths aggregated *)
  skipped : int;  (** deliveries without a publish span in the trace *)
  end_to_end_ms : float;  (** summed over deliveries *)
  mean_end_to_end_ms : float;
  rows : breakdown_row list;  (** largest total first *)
}

val breakdown : path list -> breakdown
(** Aggregate segments by label. The row totals sum to [end_to_end_ms]
    exactly (same telescoping argument as per-path). *)

val of_iter : ?pid:int -> ((Span.t -> unit) -> unit) -> breakdown
(** [of_iter ?pid iter] is the breakdown of the spans [iter f] passes to
    [f], one at a time, in sid order. No span record is retained, so a
    trace can be streamed from a file. Equal to
    [breakdown (paths ?pid spans)], with [skipped] filled in. *)

val of_spans : ?pid:int -> Span.t list -> breakdown
(** [of_iter] over a list. *)

val by_layer : breakdown -> (string * float) list
(** Collapse rows to (layer, total ms), ["wire"] and ["wait"] included,
    largest first. *)

val pp_breakdown : breakdown Fmt.t
(** Human-readable table: one row per segment label, after a line
    counting the skipped deliveries if there are any. *)
