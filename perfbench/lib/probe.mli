(** A fixed machine-speed probe.

    The benchmark runs on shared machines whose memory system slows every
    program by up to a third for seconds at a time. The probe is a small
    allocation- and memory-bound loop that does not depend on any code
    of the repository; timing it next to each repeat of a workload and
    dividing by it cancels most of that drift. *)

val ref_s : float
(** The probe's duration on the reference machine: timings divided by a
    probe reading are multiplied back by this, so they read as seconds on
    that machine. *)

val run : unit -> float
(** Run the probe once; its wall time in seconds. *)
