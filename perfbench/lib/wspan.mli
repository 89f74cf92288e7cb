(** Wall-clock spans recorded by the benchmark around its calls into each
    layer of the simulator.

    A span has a name, a start, an end and the span that encloses it.
    Spans stay in memory; the per-layer figures are sums over them. A
    disabled recorder runs the thunk and records nothing, so the timed
    (untraced) run pays one branch per call. *)

type span = {
  id : int;
  parent : int;  (** [0] for a top-level span. *)
  name : string;
  start : float;  (** Seconds, [Unix.gettimeofday]. *)
  stop : float;
}

type t

val create : enabled:bool -> t

val record : t -> string -> (unit -> 'a) -> 'a
(** [record t name f] runs [f] inside a span named [name], a child of the
    innermost span open at the call. *)

val spans : t -> span list
(** Closed spans, in order of opening. *)

val duration : span -> float

val self_time : span list -> span -> float
(** Duration minus the part of the span's interval covered by its direct
    children (overlapping children counted once). *)

val total : t -> string -> float
(** Summed duration of every span with this name. *)
