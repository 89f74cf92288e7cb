open Repro_sim

(** Unified observability sink: per-module metrics and causal protocol
    tracing.

    One [Obs.t] is shared by every layer of a simulated group. Protocol
    modules receive it as an optional argument defaulting to {!noop}, so
    instrumentation costs a single branch when observation is off and
    existing call sites need no change.

    Three metric families, all named by dotted keys:

    - {e counters} — monotone event counts (messages per layer, acks,
      retransmissions, …);
    - {e gauges} — last-written scalars (run-level summaries such as
      instances decided in the measurement window);
    - {e histograms} — fixed-bucket latency distributions with exact
      p50/p95/p99 (see {!Histogram}).

    Counters and histograms have two faces over one storage. The
    name-keyed calls ({!incr}, {!observe}) hash the name on every call and
    suit cold or dynamic names: replay bookkeeping, the reliable
    channel's retransmissions, the adversary's tampered-message kinds.
    A module on a per-message path instead
    resolves each name once, at creation, to a {e handle} ({!counter},
    {!histogram}): a dense slot in the sink's arrays, bumped by {!bump},
    {!add} or {!sample} with one array store — no hashing, no string, no
    allocation. A handle and its name are the same metric; a handle
    resolved but never bumped is listed nowhere.

    Plus the trace: one {e causal span} ({!Span}) per protocol step,
    stamped with the simulated clock, the process, the protocol {!layer},
    a phase tag ("propose", "ack", "decide", …) and a link to the step
    that caused it, so spans follow one application message across module
    boundaries. Spans are recorded with {!span} and stitched together by
    the ambient context ({!span_ctx}/{!set_span_ctx}) that the network
    layer maintains around each message handler. They are the only
    per-step record.

    All timestamps come from the engine's virtual clock through the [now]
    closure wired by {!set_clock} (done by [Group.create]); recording never
    schedules events, charges CPU cost, or consumes randomness, so an
    instrumented run is event-for-event identical to an uninstrumented
    one. *)

module Span = Span

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]
(** The protocol layer a span or message belongs to: the three
    microprotocols of the modular stack (the monolithic ABcast+ module
    counts as [`Abcast]), the network/transport below them, and the
    application above. *)

val layer_name : layer -> string
(** Lower-case name as used in metric keys and JSONL ("abcast", …). *)

val all_layers : layer list

type t

val noop : t
(** The shared disabled sink: every recording call is a no-op. This is the
    default everywhere, so building a group without an explicit [Obs.t]
    observes nothing and costs (almost) nothing. *)

val create : ?max_events:int -> unit -> t
(** A fresh enabled sink. Its clock reads {!Time.zero} until {!set_clock}
    is called. At most [max_events] (default 2,000,000) spans are
    retained; later spans are counted in {!dropped_spans} instead. *)

val create_like : t -> t
(** A fresh sink with the same retention cap and enabledness: an enabled
    sink yields a fresh enabled sibling, {!noop} yields {!noop}. The
    parallel harness gives each task [create_like shared] as its private
    sink and merges them back with {!absorb}. *)

val absorb : t -> t -> unit
(** [absorb dst src] appends everything [src] recorded onto [dst], in
    [src]'s recording order: counters add, gauges overwrite, histogram
    samples replay, spans append (respecting [dst]'s
    [max_events] cap, excess counted as dropped), and span ids — parents
    included — are renumbered past every id [dst] has allocated, so
    absorbing per-task sinks in task order reproduces byte-for-byte the
    stream a single shared sink would have recorded sequentially. [src]
    is left unchanged; no-op unless both sinks are enabled. *)

val set_clock : t -> (unit -> Time.t) -> unit
(** Wire the clock used to stamp spans and compute latencies. [Group.create]
    calls this with [Engine.clock], which reads the clock's own cell; no-op
    on {!noop}. The sink keeps the reader for its lifetime, so the reader
    must not capture the world it reads (an engine, a group): a sink kept
    after its run would keep that whole world alive. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. Guard metric updates on this at hot call
    sites. *)

val tracing : t -> bool
(** Enabled {e and} retaining spans ([max_events > 0]). Guard expensive
    per-step work — detail-string formatting, span creation — on this
    rather than {!enabled}: a metrics-only sink ([create ~max_events:0])
    keeps counters exact while skipping the span machinery entirely,
    which is what makes it cheap enough for the sharded million-client
    cells. *)

val now : t -> Time.t
(** The sink's current clock reading. *)

(** {1 Counters} *)

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter. The counter is listed from
    then on, even when the amount is 0. *)

val counter_value : t -> string -> int
(** 0 if never incremented. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

type counter
(** A counter handle: valid only with the sink that resolved it. *)

val counter : t -> string -> counter
(** Resolve a name to its handle, allocating the slot on first use. The
    counter is not listed until it is bumped. On a disabled sink this
    writes nothing and returns a handle every bump ignores. *)

val bump : t -> counter -> unit
(** [bump t c] is [incr t name] for [c = counter t name], as one array
    store. *)

val add : t -> counter -> int -> unit
(** [add t c by] is [incr t ~by name]. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float option
val gauges : t -> (string * float) list

(** {1 Histograms} *)

val observe : t -> ?edges:float array -> string -> float -> unit
(** Record a sample in the named histogram, created on first use with
    [edges] (default {!Histogram.default_edges}, milliseconds). *)

val observe_since : t -> ?edges:float array -> string -> Time.t -> unit
(** Record [now - since] in milliseconds. Silently skipped when the clock
    has not reached [since] (e.g. on a sink whose clock was never wired). *)

val histogram_summary : t -> string -> Stats.summary option
val histograms : t -> (string * Histogram.t) list
(** Every histogram holding at least one sample, sorted by name. *)

type histogram
(** A histogram handle: valid only with the sink that resolved it. *)

val histogram : t -> ?edges:float array -> string -> histogram
(** Resolve a name to its handle, creating the histogram with [edges] on
    first use. It is not listed until its first sample. On a disabled
    sink this writes nothing. *)

val sample : t -> histogram -> float -> unit
(** [sample t h v] is [observe t name v] for [h = histogram t name]. *)

val sample_since : t -> histogram -> Time.t -> unit
(** The handle form of {!observe_since}. *)

(** {1 Trace: causal spans}

    See {!Span} for the data model. The protocol rule: record a span at
    each step of interest. A step within a handler passes the sink's
    current context ([~parent:(span_ctx obs)]), which the network layer
    sets to the receive-span around each delivered message handler (and
    resets afterwards), so within-handler steps chain to their trigger.
    Asynchronous hand-offs (CPU submissions, scheduled deliveries)
    capture the context when they are made and pass that instead.
    Details are built only when {!tracing} holds, with the
    {!Span.detail1}-style builders rather than [Printf]. *)

val span : t -> parent:int -> pid:int -> layer:layer -> phase:string -> detail:string -> int
(** Record one causal span at the current instant and return its fresh
    [sid] ([Span.no_parent] on a disabled sink). The record, its trace
    cell and the caller's [detail] are all it allocates. Ids keep
    advancing after the [max_events] cap so parent links stay globally
    consistent; capped-out records are counted in {!dropped_spans}
    instead of retained. *)

val span_ctx : t -> int
(** The ambient "current span", the parent of a step within a handler;
    [Span.no_parent] when no handler is executing (or on a disabled
    sink). *)

val set_span_ctx : t -> int -> unit
(** Set the ambient context (no-op on a disabled sink). The network layer
    brackets handler invocations with this; protocol code normally never
    calls it. *)

val with_span_ctx : t -> int -> (unit -> 'a) -> 'a
(** Run a thunk with the ambient context set, restoring it afterwards,
    also when the thunk raises (the exception is re-raised with its
    backtrace). *)

val spans : t -> Span.t list
(** All retained spans, oldest first. *)

val fold_spans_right : (Span.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_spans_right f t init] is [List.fold_right f (spans t) init],
    without building the list. *)

val span_count : t -> int

val dropped_spans : t -> int
(** Spans discarded after [max_events] was reached. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["obs.sink"]. Carries counters, gauges,
    histograms, span-id allocator and ambient span context; the span
    buffer (a closure over the clock) rides the world blob. *)
