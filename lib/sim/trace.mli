(** Timestamped event recorder.

    A lightweight append-only log of labelled events, used by tests to
    assert on protocol histories and by the observability layer
    ([Repro_obs.Obs]) as the store behind its causal spans. Recording is
    O(1); the log lives entirely in memory.

    The clock is a plain closure so the recorder does not depend on who
    owns the engine: {!create} wires it to an engine's virtual clock, and
    {!create_with_clock} accepts any [unit -> Time.t] (the observability
    sink wires its clock after construction via {!set_clock}).

    {2 Determinism obligations}

    - Entries are stored and returned strictly in record order with their
      virtual timestamps; no hash-ordered container is involved, so two
      identical runs export byte-identical traces.
    - {!absorb} preserves source order and timestamps, which is what lets
      the parallel harness merge per-task traces into exactly the log a
      sequential run would have written. *)

type 'a t
(** A trace of events of type ['a]. *)

type 'a entry = { at : Time.t; event : 'a }

val create : Engine.t -> 'a t
(** A fresh empty trace stamping entries with the engine's clock. *)

val create_with_clock : (unit -> Time.t) -> 'a t
(** A fresh empty trace stamping entries with an arbitrary clock. *)

val set_clock : 'a t -> (unit -> Time.t) -> unit
(** Replace the clock used for subsequent entries. Existing entries keep
    their timestamps. *)

val record : 'a t -> 'a -> unit
(** Append an event at the current instant. *)

val entries : 'a t -> 'a entry list
(** All entries, oldest first. *)

val events : 'a t -> 'a list
(** All events, oldest first, without timestamps. *)

val length : 'a t -> int
(** Number of recorded entries. *)

val absorb : ?limit:int -> ?map:('a -> 'a) -> into:'a t -> 'a t -> int
(** [absorb ~limit ~map ~into src] appends [src]'s entries onto [into] in
    order, preserving their timestamps and rewriting each event through
    [map] (default identity), but never growing [into] past [limit]
    entries (default unbounded). Returns the number of entries dropped by
    the limit. [src] is not modified. *)
