(** JSONL export of an {!Obs} sink, plus the minimal JSON codec used to
    read it back.

    Two line-oriented schemas, one JSON object per line, both optionally
    prefixed with caller-supplied string [tags] (e.g.
    [("stack", "modular")]) so several runs can share one file:

    Metrics ({!write_metrics_file}) — one line per metric:
    {v
{"type":"counter","name":"net.msgs.consensus","value":124}
{"type":"gauge","name":"run.instances","value":31.0}
{"type":"histogram","name":"consensus.decide_ms","count":31,"mean":1.93,
 "p50":1.87,"p95":2.4,"p99":2.9,"max":3.1,"buckets":[[0.05,0],…,[null,0]]}
    v}
    Histogram buckets are [[upper_edge, count]] pairs, per-bucket (not
    cumulative) counts, with [null] as the +inf overflow edge.

    Trace ({!write_trace_file}) — one line per causal {!Span.t}, the only
    per-step record:
    {v
{"type":"span","sid":17,"parent":12,"at_ns":2514836,"pid":0,"layer":"consensus","phase":"propose","detail":"i3 r1 (1 msgs)"}
    v}
    If the stream hit the sink's [max_events] cap, a single marker line
    [{"type":"trace_truncated","stream":"spans","dropped":K}] closes it,
    so a truncated export is self-describing. Readers skip line types
    they do not know, so files from older writers (which also carried
    flat [{"type":"trace",…}] lines) still load.

    The parser accepts general JSON (objects, arrays, scalars), enough for
    the round-trip tests and the [@obs-smoke] checker without an external
    dependency. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact (single-line) rendering. Strings escape the double quote,
    the backslash and every control byte below 0x20; other bytes pass
    through as they are. *)

val parse : string -> (json, string) result
(** Parse one JSON value; [Error] carries a position-tagged message. *)

val parse_lines : string -> (json list, string) result
(** Parse a JSONL document: one value per non-blank line; fails on the
    first unparsable line, naming its 1-based position in [text] (blank
    lines counted). *)

val member : string -> json -> json option
(** Field lookup in an [Obj]; [None] on other variants. *)

val to_float_opt : json option -> float option
(** Numeric field as float ([Int] widens); [None] otherwise. *)

val to_int_opt : json option -> int option
val to_string_opt : json option -> string option

val metric_lines : ?tags:(string * string) list -> Obs.t -> string list
(** The metrics schema, one rendered line per counter, gauge and
    histogram (counters first, each family sorted by name). *)

val span_line : Span.t -> string
(** One causal span rendered as a trace line. *)

val span_lines : ?tags:(string * string) list -> Obs.t -> string list
(** The trace schema: one rendered line per causal span, oldest first,
    plus the truncation marker when spans were dropped. *)

val span_of_json : json -> Span.t option
(** Decode one parsed line back into a span; [None] for lines of any
    other type (metrics, markers, legacy flat trace lines). *)

val spans_of_lines : json list -> Span.t list
(** All spans in a parsed JSONL document, in file order. *)

val write_metrics_file : ?tags:(string * string) list -> string -> Obs.t -> unit
(** Create/truncate [path] and write the {!metric_lines}, each followed by
    a newline. Lines are rendered one at a time into a reused buffer and
    streamed to the file. *)

val write_trace_file : ?tags:(string * string) list -> string -> Obs.t -> unit
(** Create/truncate [path] and write the {!span_lines}, each followed by a
    newline, streamed like {!write_metrics_file}. *)
