open Repro_core

(** Symmetric constant-rate workload (§5.1).

    Every process abcasts messages of a fixed size at a constant rate; the
    global rate is the offered load T_offered. Arrivals can be strictly
    periodic (the paper's constant rate, staggered across processes so they
    do not fire in lockstep) or Poisson (for robustness experiments).
    Offers go through the replica's flow control, which blocks them when
    the window is full — the generator keeps offering regardless, exactly
    like the paper's application threads. *)

type t

type arrival = Uniform | Poisson

val start :
  Group.t ->
  offered_load:float ->
  size:int ->
  ?arrival:arrival ->
  unit ->
  t
(** Start offering [offered_load] messages per second globally, spread
    evenly over the n processes, each of [size] bytes. [arrival] defaults
    to [Uniform]. Runs until {!stop}. *)

val stop : t -> unit
(** Stop offering. In-flight protocol activity continues. *)

val offered : t -> int
(** Offers issued so far by this generator. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["workload.generator"]: offered count, stop flag
    and the arrival RNG stream; the self-reposting offer loops ride the
    world blob. *)
