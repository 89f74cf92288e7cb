(** Append-only event log.

    A clockless, in-memory log of values in record order. It is the
    store behind the observability layer's causal spans
    ([Repro_obs.Obs]); each span carries its own instant, so the log
    stamps nothing itself. Recording is O(1).

    {2 Determinism obligations}

    - Events are stored and returned strictly in record order; no
      hash-ordered container is involved, so two identical runs export
      byte-identical traces.
    - {!absorb} preserves source order, which is what lets the parallel
      harness merge per-task traces into exactly the log a sequential
      run would have written. *)

type 'a t
(** A log of events of type ['a]. *)

val create : unit -> 'a t
(** A fresh empty log. *)

val record : 'a t -> 'a -> unit
(** Append an event. *)

val events : 'a t -> 'a list
(** All events, oldest first. *)

val length : 'a t -> int
(** Number of recorded events. *)

val fold_right : ('a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** [fold_right f t init] is [List.fold_right f (events t) init], without
    building the list: [f] sees the newest event first. *)

val absorb : ?limit:int -> ?map:('a -> 'a) -> into:'a t -> 'a t -> int
(** [absorb ~limit ~map ~into src] appends [src]'s events onto [into] in
    order, rewriting each through [map] (default identity), but never
    growing [into] past [limit] events (default unbounded). Returns the
    number of events dropped by the limit. [src] is not modified. *)
