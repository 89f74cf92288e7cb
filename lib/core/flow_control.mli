(** Flow control (§5.1).

    Both stacks share one mechanism: a process may have at most [window] of
    its own abcast messages admitted but not yet adelivered; further abcast
    events block (queue) until deliveries free slots. This is what bounds
    the per-process backlog, produces the latency/throughput plateaus of
    Figs. 8 and 10, and (with the default window) keeps the measured mean
    consensus batch size near the paper's M = 4. *)

type t

val create : window:int -> t
(** @raise Invalid_argument if [window < 1]. *)

val has_room : t -> bool
(** Whether a new own message may be admitted now. *)

val acquire : t -> unit
(** Take one slot. @raise Invalid_argument if no room. *)

val release : t -> unit
(** Free one slot (an own message was adelivered) and run the registered
    drain callback if one is set. *)

val in_flight : t -> int
(** Currently admitted, not yet adelivered own messages. *)

val set_on_space : t -> (unit -> unit) -> unit
(** Register the callback invoked after each {!release}; the owner uses it
    to admit queued offers. Replaces any previous callback. *)

val snapshot : name:string -> t -> Repro_sim.Snapshot.section
(** Window size and in-flight count. The [on_space] callback is wiring,
    not state, and rides the world blob. *)
