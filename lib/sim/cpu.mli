(** A single-core CPU resource.

    Models the per-message processing cost that dominates the paper's
    experimental results (§5.3: "99% of CPU resources were used with an
    offered load bigger than 500 msgs/s"). Work items are executed in FIFO
    order; each occupies the CPU for its stated duration, and its completion
    closure runs at the instant the CPU finishes it. Utilization statistics
    let experiments report saturation.

    {2 Determinism obligations}

    - Completion instants are a pure function of the submission history:
      strict FIFO, exact {!Time.span} addition, completions scheduled on
      the engine's deterministic queue (so ties against other events
      resolve by insertion order).
    - Work closures run on the virtual clock only; nothing here consults
      wall time, and utilization is derived arithmetic over virtual
      instants. *)

type t

val create : Engine.t -> t
(** A fresh, idle CPU driven by the engine's clock. *)

val submit : t -> cost:Time.span -> (unit -> unit) -> unit
(** Enqueue a work item: after all previously submitted work completes, the
    CPU is busy for [cost], then the closure runs. A zero-cost item still
    respects FIFO order but consumes no time. *)

val charge : t -> Time.span -> unit
(** Occupy the CPU for the given duration without a completion callback:
    everything submitted afterwards starts that much later. Used for
    in-line costs such as framework event dispatch, where the caller
    continues synchronously but the time must still be accounted. *)

val busy_until : t -> Time.t
(** The instant the CPU becomes idle given current queue contents; [now] if
    it is idle. *)

val busy_time : t -> Time.span
(** Cumulative time spent executing work since creation. *)

val utilization : t -> since:Time.t -> float
(** Fraction of wall time the CPU was busy between [since] and the current
    instant. Counts only work already completed or in progress. *)

val snapshot : ?name:string -> t -> Snapshot.section
(** Accounting state: next-free instant and cumulative busy time.
    Default section name ["sim.cpu"]. *)

val restore : ?name:string -> t -> Snapshot.section -> unit
(** Re-seat the accounting state. Queued completion closures are restored
    by the world blob, not here.
    @raise Snapshot.Codec_error on a name/version mismatch. *)
