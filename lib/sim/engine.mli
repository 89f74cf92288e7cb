(** The discrete-event simulation engine.

    An engine owns the virtual clock, the event queue and the root random
    generator. Components schedule closures at future instants; [run]
    executes them in timestamp order (insertion order breaking ties),
    advancing the clock to each event's instant. All state mutation in a
    simulation happens inside scheduled closures, so a run is a
    deterministic function of the seed and the initial schedule.

    {2 Determinism obligations}

    - Execution order is exactly ascending [(instant, schedule order)]:
      two events at the same instant run in the order they were
      scheduled. Every protocol-level tie in the repo (simultaneous
      message arrivals, expiring timers) is broken by this rule alone.
    - The clock only moves inside {!step}/{!run}/{!run_until}, to the
      instant of the event being dispatched; closures must derive all
      timing from {!now} and all randomness from (streams split off)
      {!rng}. Nothing here reads wall time.
    - [run]/[run_until] drive the queue through the allocation-free
      {!Event_queue.pop_apply} path; per-event cost is the closure call
      plus queue bookkeeping, which is what makes events/sec a stable,
      benchmarkable property (see PERF.md). *)

type t

type timer
(** Names a scheduled event so it can be cancelled. *)

val create : ?seed:int -> unit -> t
(** A fresh engine with clock at {!Time.zero}. Default [seed] is 0. *)

val now : t -> Time.t
(** The current virtual instant. *)

val clock : t -> unit -> Time.t
(** A reader of the virtual clock that holds the clock's cell and not the
    engine: keeping the reader (say, in an observability sink that
    outlives its run) does not keep the simulated world alive. *)

val rng : t -> Rng.t
(** The engine's root random generator. Components that need their own
    stream should {!Rng.split} it once at setup. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> timer
(** Run the closure when the clock reaches the given instant.
    @raise Invalid_argument if the instant is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> timer
(** Run the closure after the given delay. *)

val post_at : t -> Time.t -> (unit -> unit) -> unit
(** {!schedule_at} without materialising a timer. Identical semantics and
    ordering; the allocation-free path for fire-and-forget events, which
    are the vast majority (message deliveries, CPU completions).
    @raise Invalid_argument if the instant is in the past. *)

val post_after : t -> Time.span -> (unit -> unit) -> unit
(** {!post_at} after the given delay. *)

val cancel : t -> timer -> unit
(** Forget a scheduled event. No-op if it already fired or was cancelled. *)

val step : t -> bool
(** Execute the single earliest pending event. [false] if none
    remained. *)

val run : t -> unit
(** Execute events until the queue is empty. *)

val run_until : t -> Time.t -> unit
(** Execute events with instants [<=] the limit, then set the clock to the
    limit. Events scheduled beyond the limit stay pending. *)

val pending : t -> int
(** Number of scheduled events not yet executed or cancelled. *)

val events_executed : t -> int
(** Total closures executed since creation (a cheap progress/cost probe,
    and the numerator of the bench harness's [events_per_sec]). *)

val snapshot : t -> Snapshot.section
(** Clock, executed-event count and queue occupancy, as ["sim.engine"]. *)

val rng_snapshot : t -> Snapshot.section
(** The root generator's stream state, as ["sim.engine.rng"]. *)

val queue_snapshot : t -> Snapshot.section
(** The event queue's occupancy summary (see {!Event_queue.snapshot}). *)
