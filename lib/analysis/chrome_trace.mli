(** Chrome/Perfetto trace-event export of an Obs span JSONL stream.

    [repro trace-export --chrome-out] converts the [--trace-out] file
    (lines of type [span]) into the Trace Event Format that
    [about:tracing] and Perfetto load: pid = simulated process (1-based),
    tid = protocol layer, causal spans as complete (["X"]) events whose
    extent runs from the causing span's instant to their own — the hop
    the critical-path analysis attributes — and roots as instants
    (["i"]).

    {2 Determinism obligations}

    - Output order is input line order plus metadata rows sorted by pid;
      no hash iteration reaches the output. *)

val export : Repro_obs.Jsonl.json list -> Repro_obs.Jsonl.json
(** Parsed JSONL lines (unknown line types are skipped) to one Chrome
    trace JSON object. *)

val export_string : Repro_obs.Jsonl.json list -> string
