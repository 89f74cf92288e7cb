(** Virtual time for the discrete-event simulation.

    Time is an absolute instant measured in integer nanoseconds since the
    start of the simulation. Spans are durations, also in nanoseconds. Using
    integers keeps the engine exactly deterministic: no rounding, no
    accumulation error, total order on instants.

    {2 Determinism obligations}

    - All arithmetic is exact integer arithmetic; there is no float on any
      path that feeds back into scheduling. The [*_float] conversions are
      one-way, for reporting only.
    - Values never encode wall-clock time: an instant is defined purely by
      the event history that produced it, so equal op sequences yield
      equal instants on any machine. *)

type t = private int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = private int
(** A duration in nanoseconds. Spans may be zero but never negative. *)

val zero : t
(** The simulation start instant. *)

val of_ns : int -> t
(** [of_ns n] is the instant [n] nanoseconds after start.
    @raise Invalid_argument if [n < 0]. *)

val to_ns : t -> int
(** Nanoseconds since simulation start. *)

val span_ns : int -> span
(** [span_ns n] is a duration of [n] nanoseconds.
    @raise Invalid_argument if [n < 0]. *)

val span_us : int -> span
(** [span_us n] is a duration of [n] microseconds. *)

val span_ms : int -> span
(** [span_ms n] is a duration of [n] milliseconds. *)

val span_s : int -> span
(** [span_s n] is a duration of [n] seconds. *)

val span_to_ns : span -> int
(** The duration in nanoseconds. *)

val span_zero : span
(** The empty duration. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff later earlier] is the duration between the two instants.
    @raise Invalid_argument if [later < earlier]. *)

val span_add : span -> span -> span
(** Sum of two durations. *)

val span_scale : int -> span -> span
(** [span_scale k d] is [k] times duration [d].
    @raise Invalid_argument if [k < 0]. *)

val span_max : span -> span -> span
(** The longer of two durations. *)

val compare : t -> t -> int
(** Total order on instants. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val max : t -> t -> t
(** The later of two instants. *)

val min : t -> t -> t
(** The earlier of two instants. *)

val to_ms_float : t -> float
(** Instant as fractional milliseconds (for reporting only). *)

val span_to_ms_float : span -> float
(** Duration as fractional milliseconds (for reporting only). *)

val pp : t Fmt.t
(** Prints an instant as [<ms>ms] with microsecond precision. *)

