(** Versioned snapshot codec for module state.

    Every simulated component exposes a [snapshot : t -> Snapshot.section].
    A {!section} is the component's enumerable data-plane state: ordered
    key/{!field} pairs plus an optional opaque bulk payload ([Marshal]ed
    pure data). Sections are what the frame log persists per module, what
    [repro bisect] diffs between the last-good and first-bad frames, and
    what the codec round-trip tests exercise.

    Sections are a diagnostic view, never read back into a live
    component: resuming a run goes only through the whole-world blob
    captured by [Repro_replay.World] ([Marshal.Closures] over the engine
    and everything it reaches), so queue and state cannot desync.

    {2 Determinism obligations}

    - Encoding is a pure function of the section values: hand-rolled
      little-endian framing, no [Marshal] for metadata, no hash-order
      iteration (callers must emit fields in a deterministic order).
    - Floats are compared and round-tripped bit-exactly
      ([Int64.bits_of_float]); the JSON rendering is for human reports
      only and never parsed back. *)

type field =
  | Bool of bool
  | Int of int
  | I64 of int64
  | Float of float
  | String of string
  | List of field list

type section = {
  name : string;  (** e.g. ["sim.engine"], ["core.replica.p2"] *)
  version : int;  (** per-module codec version; bumped on layout change *)
  fields : (string * field) list;  (** ordered, keys unique *)
  data : string;  (** opaque bulk payload; [""] if none *)
}

exception Codec_error of string

val make : name:string -> version:int -> ?data:string -> (string * field) list -> section

val get_int : section -> string -> int
(** @raise Codec_error if the key is absent or not an {!Int}. *)

val equal_field : field -> field -> bool
(** Structural equality; floats compare by bit pattern. *)

val equal_section : section -> section -> bool

val encode_sections : section list -> string
(** The versioned binary encoding (magic-prefixed, little-endian framed).
    Readable across rebuilds of the binary — unlike the world blob. *)

val decode_sections : string -> section list
(** Inverse of {!encode_sections}. @raise Codec_error on malformed input. *)

val field_to_json : field -> string

(** Structural diff between two frames' section lists. *)

type field_diff = { key : string; before : field option; after : field option }

type section_diff = {
  section : string;
  changed : field_diff list;
  data_changed : bool;  (** bulk payloads differ byte-wise *)
}

val diff_sections : section list -> section list -> section_diff list
(** Per-module field diffs, in [before]'s section order (sections only in
    [after] appended). Unchanged sections are omitted. *)

val section_diff_to_json : section_diff -> string

val pack : 'a -> string
(** [Marshal] (pure data, no closures) a module's bulk payload. *)
