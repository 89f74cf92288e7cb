(** Snapshot-completeness analysis.

    For every structure whose toplevel [snapshot] returns a
    [Repro_sim.Snapshot.section] and that declares a state type [t]
    (so not [Net_stats.snapshot], which returns traffic totals),
    cross-checks the mutable state reachable
    from [t] (mutable record labels, and labels whose type visibly
    contains [ref], [Hashtbl.t], [Queue.t], [Stack.t], [Buffer.t] or
    [Atomic.t]) against the record labels the [snapshot] function
    actually reads, transitively through same-structure toplevel
    helpers. Uncaptured state is reported at the label's declaration
    site under rule [snapshot-completeness]: it would be invisible to
    [repro bisect]'s state diff.

    Sanctioned runtime-topology exemptions (state only the [Marshal]
    world blob can carry): labels whose type contains a
    function arrow, labels of a type listed in [topology_types]
    (e.g. [Engine.timer]), and the explicit per-unit entries in
    [topology_fields]. See the implementation header for the full
    soundness envelope. *)

val rule : string
(** ["snapshot-completeness"]. *)

val check :
  ?unit:Boundaries.unit_id ->
  file:string ->
  Typedtree.structure ->
  Violation.t list
(** All violations in one implementation's typedtree, sorted. [unit]
    (when the file belongs to a [lib/] unit) keys the per-unit
    [topology_fields] exemptions. *)

val debug_pairs :
  ?unit:Boundaries.unit_id ->
  Typedtree.structure ->
  (string * string) list * (string * string) list
(** [(obligations, coverage)] for the toplevel structure's
    section-returning [snapshot], as [(type, label)] pairs — [( [], [] )]
    when the structure has none. Exposed so tests can pin down that a
    specific field write is an obligation and currently covered (the
    "deleting a field read makes lint fail" acceptance check). *)
