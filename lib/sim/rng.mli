(** Deterministic pseudo-random number generator.

    A small splittable PRNG (SplitMix64 core) owned by the simulation
    engine. Every random choice in a simulation flows from a single seed, so
    any run is exactly reproducible. [split] derives an independent stream,
    which lets components (network jitter, workload, fault injector) draw
    numbers without perturbing each other's sequences.

    {2 Determinism obligations}

    - The stream is a pure function of the seed and the draw/split
      history — never of stdlib [Random] state, wall time, or hashing.
      This module is the {e only} sanctioned randomness source in [lib/]
      (enforced by [repro lint]'s determinism pass).
    - [split] must be used, not seed arithmetic, to derive component
      streams: it guarantees the child's draws cannot perturb the
      parent's sequence, so adding a consumer never shifts another
      component's numbers.
    - The exception is a stream that must be independent of the engine's
      {e by construction} (a [split] advances the parent): such streams
      come from {!derive}, never from ad-hoc seed arithmetic at the use
      site — [repro lint]'s [rng-stream] rule flags raw seed arithmetic
      outside this module. *)

type t

val create : seed:int -> t
(** A fresh generator from a seed. Equal seeds give equal streams. *)

val derive : seed:int -> salt:int -> t
(** [derive ~seed ~salt] is a named stream for the component identified by
    [salt]: equal to [create ~seed:(seed lxor salt)], but keeping the seed
    arithmetic inside this module. Distinct salts give streams independent
    of each other and of [create ~seed] itself, without advancing any
    existing stream (unlike {!split}). *)

val split : t -> t
(** [split t] is a new generator whose stream is independent of the numbers
    subsequently drawn from [t]. *)

val bits64 : t -> int64
(** Next 64 raw pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** A fair coin flip. *)

val exponential : t -> mean:float -> float
(** A draw from the exponential distribution with the given mean. Used for
    Poisson arrival processes in the workload generator. *)

val pick : t -> 'a array -> 'a
(** A uniformly random element.
    @raise Invalid_argument on an empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val snapshot : ?name:string -> t -> Snapshot.section
(** The full generator state (one 64-bit word). Default section name
    ["sim.rng"]; components snapshotting their private stream pass their
    own name. *)
