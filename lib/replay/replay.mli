open Repro_core

(** Time-travel driver: whole-world snapshot frames, deterministic resume,
    and divergence diagnostics over a recorded frame log.

    A frame carries two representations of the same instant. The {e data
    plane} — every module's counters, tables and queues — is a list of
    {!Repro_sim.Snapshot.section}s in the versioned codec, readable across
    rebuilds of the binary ([bisect] works from it alone). The {e control
    plane} — pending events, armed timers, subscriber callbacks — is a
    whole-world [Marshal] blob with closures, pinned to the writing binary
    (the log header records the executable digest; {!replay} checks it).
    Resume goes only through the blob: unmarshaling reproduces a
    self-consistent world whose queued events reference exactly the
    records its tables hold, and that copy becomes the live world.

    Frames are taken only {e between} engine slices, never inside the
    event loop, so a recorded run is event-identical to an unrecorded one;
    with an interval of 0 no frame is taken and the run is bit-for-bit the
    plain [Experiment.run_raw] / [Campaign.run_one]. *)

exception Replay_error of string
(** Raised on malformed logs, out-of-range frames, cross-build resume
    attempts and misuse (e.g. bisecting an unmonitored report run). *)

val snapshot_metrics : string list
(** Obs counter names bumped by recording/resume ([snapshots_taken],
    [snapshot_bytes], [restore_count]). They legitimately differ between a
    t=0 run and a resumed suffix, so {!verify} strips their metric lines
    before diffing — the same contract as the timing-class [bench_meta]
    fields ([wallclock_s] …) that [@parallel-smoke] strips. *)

(** {2 Recording} *)

val record_report :
  ?obs:Repro_obs.Obs.t ->
  every_ns:int ->
  path:string ->
  Repro_workload.Experiment.config ->
  float list * Repro_workload.Experiment.result
(** Run the report workload exactly as [Experiment.run_raw] while writing
    a frame log to [path]: frame 0 at t=0, one frame every [every_ns] of
    virtual time, and a trailer holding the final sections plus the
    observable byte streams (metrics / trace / report). Returns
    [run_raw]'s value. @raise Invalid_argument if [every_ns <= 0]. *)

val record_nemesis :
  ?obs:Repro_obs.Obs.t ->
  kind:Replica.kind ->
  n:int ->
  seed:int ->
  schedule:Repro_fault.Schedule.t ->
  offered_load:float ->
  settle_s:float ->
  every_ns:int ->
  path:string ->
  unit ->
  Repro_fault.Campaign.verdict
(** Same, for a monitored fault-injection run: exactly
    [Campaign.run_one], plus the frame log. Only nemesis logs can be
    {!bisect}ed (the monitor section carries the violation counter). *)

(** {2 Loading and resuming} *)

type log

val load : string -> log
(** Parse a frame log written by {!record_report} / {!record_nemesis}.
    @raise Replay_error if the file is not a complete log. *)

val frame_count : log -> int
val descriptor : log -> string  (** The run's one-line JSON descriptor. *)

val every_ns : log -> int
val frame_times : log -> (int * int) list  (** [(index, at_ns)] pairs. *)

val final_at_ns : log -> int

type world
(** A finished (resumed and run-to-completion) run. *)

val replay : log -> from_frame:int -> world
(** Unmarshal frame [from_frame]'s world blob and run the remaining
    milestones to completion, taking no new frames. @raise Replay_error
    if the frame is out of range or the log was written by a different
    build of this binary. *)

val observables : world -> (string * string) list
(** The replayed run's observable byte streams, same names and shapes as
    the log trailer's. *)

val report_text : world -> string
(** The replayed run's final report: the experiment result line, or the
    campaign verdict JSONL followed by one line per violation. *)

(** {2 Self-verification} *)

type divergence = { d_frame : int; d_stream : string; d_detail : string }

val verify : ?progress:(frame:int -> frames:int -> unit) -> log -> divergence list
(** Replay the suffix from {e every} frame and diff each stream against
    the recording's trailer (snapshot-counter metric lines stripped on
    both sides). Empty result = every frame reproduced the run
    byte-identically. *)

(** {2 Divergence diagnostics} *)

type bisect_report = {
  b_invariant : string;
  b_process : int;  (** 1-based, as printed. *)
  b_at_ms : float;
  b_detail : string;
  b_from_frame : int;  (** Last frame with zero violations. *)
  b_to_frame : int option;  (** First bad frame; [None]: the trailer. *)
  b_from_ms : float;
  b_to_ms : float;
  b_diff : Repro_sim.Snapshot.section_diff list;
      (** Per-module field diffs, last-good frame vs first-bad frame. *)
  b_window_spans : string list;
      (** Span JSONL lines timestamped inside the window (from, to]. *)
}

val bisect : log -> bisect_report option
(** Binary-search the monitor's monotone violation counter over the frame
    log: [None] if the recorded run never violated, otherwise the
    narrowest inter-frame window containing the first violation, with the
    structured state diff across it. Works from frame metadata except for
    the window spans (which resume the first-bad world). @raise
    Replay_error on report-mode logs or if frame 0 already violates. *)

val bisect_report_lines : bisect_report -> string list
(** The report as JSONL: one [{"type":"bisect",…}] summary line, one
    [{"section":…,"changes":…}] line per changed section, then the
    window's span lines. *)
