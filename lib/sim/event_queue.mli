(** Priority queue of timestamped events.

    An indexed binary min-heap keyed by [(time, sequence)]. The sequence
    number is assigned at insertion, so events scheduled for the same
    instant pop in insertion order — the tie-break that makes
    whole-simulation determinism possible. Push, pop and cancel are
    O(log n) in the number of pending events; a cancelled event leaves
    the heap at once, so the queue holds only pending events.

    {2 Determinism obligations}

    - Pop order is a pure function of the push/pop/cancel history:
      ascending [(time, seq)] with [seq] the global insertion counter.
      Every internal decision depends only on those keys — never on wall
      time or allocation addresses — so two runs issuing the same
      operations observe identical pop sequences, byte for byte
      downstream.
    - Internal slots are reused. A {!handle} therefore names an event
      {e generation}, not a slot: cancelling after the event popped (or
      was cancelled) is a guaranteed no-op even if the slot has been
      reused for a later event.
    - The queue never calls polymorphic comparison or hashing on user
      values; ['a] values are only stored and returned. *)

type 'a t
(** A queue of events carrying values of type ['a]. *)

type handle
(** Names one inserted event, for cancellation. *)

val create : unit -> 'a t
(** An empty queue. *)

val push : 'a t -> time:Time.t -> 'a -> handle
(** Insert an event at the given instant. *)

val push_unit : 'a t -> time:Time.t -> 'a -> unit
(** {!push} without materialising a handle — the zero-allocation path for
    the overwhelmingly common fire-and-forget schedule. *)

val cancel : 'a t -> handle -> unit
(** Remove the event named by the handle, if it is still pending.
    Cancelling an already-popped or already-cancelled event is a no-op. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest pending event, insertion order breaking
    ties. [None] if no pending event remains. *)

val pop_apply : 'a t -> (Time.t -> 'a -> unit) -> bool
(** [pop_apply t f] removes the earliest pending event and calls
    [f time value] on it; [false] (and no call) if none remained. Same
    order as {!pop} but allocation-free — the engine's hot loop. [f] may
    push further events. *)

val pop_apply_until : 'a t -> limit:Time.t -> (Time.t -> 'a -> unit) -> bool
(** Like {!pop_apply} but leaves the queue untouched (returning [false])
    when the earliest pending event is later than [limit]. *)

val peek_time : 'a t -> Time.t option
(** The instant of the earliest pending event without removing it. *)

val is_empty : 'a t -> bool
(** No pending (non-cancelled) events. *)

val length : 'a t -> int
(** Number of pending (non-cancelled) events. *)

val snapshot : 'a t -> Snapshot.section
(** Occupancy summary: pending events and the insertion counter. Queue
    {e contents} are arbitrary closures and are captured only by the
    world blob ([Repro_replay.World]). *)
