(** Network traffic counters.

    The analytical evaluation of the paper (§5.2) is entirely in terms of
    how many messages and how many bytes each stack puts on the wire. These
    counters are the measured side of that comparison: every message that
    physically leaves a NIC is recorded here. Local (self) deliveries are
    not counted, matching the paper's accounting.

    {2 Determinism obligations}

    - Counters are pure accumulators over the (deterministic) send
      history; {!by_kind} sorts its result by kind name so no
      hash-ordered iteration reaches reports. *)

type t

type snapshot = {
  messages : int;  (** Messages sent on the wire. *)
  payload_bytes : int;  (** Protocol payload bytes, headers excluded. *)
  wire_bytes : int;  (** Bytes including per-message framing. *)
}

val create : n:int -> kinds:string array -> t
(** Fresh zeroed counters for an [n]-process system whose messages have
    the given dense kinds: kind [kinds.(i)] is counted in slot [i]. *)

val kind_slot : t -> string -> int
(** The slot of a kind by name, appending a slot for a kind not met
    before. A linear scan: for kinds outside the dense table only. *)

val kind_name : t -> int -> string
(** The kind counted in a slot. *)

val record_send :
  t -> src:Pid.t -> kind:int -> payload_bytes:int -> wire_bytes:int -> unit
(** Count one message leaving [src]'s NIC, of the kind in slot [kind]. *)

val by_kind : t -> (string * int) list
(** Message counts per protocol kind since creation, sorted by kind. *)

val snapshot : t -> snapshot
(** Current totals. *)

val sent_by : t -> Pid.t -> int
(** Messages sent by one process since creation. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the traffic between two snapshots. *)

val zero : snapshot
(** The empty snapshot. *)

val pp_snapshot : snapshot Fmt.t
(** One line, no trailing newline:
    [<messages> msgs, <payload_bytes> B payload, <wire_bytes> B on wire] —
    e.g. [42 msgs, 4096 B payload, 5462 B on wire]. For the same totals
    split by protocol layer, observe the run with [Repro_obs.Obs] (the
    [net.msgs.*] / [net.*_bytes.*] counters). *)

type dump = {
  d_messages : int;
  d_payload : int;
  d_wire : int;
  d_sent : int array;
  d_kinds : (string * int) list;  (** sorted by kind *)
}
(** The full counter state as pure data, for {!Network}'s snapshot
    payload. [d_kinds] is sorted, so a dump is a canonical value. *)

val dump : t -> dump
