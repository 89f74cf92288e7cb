open Repro_net

(** Scripted failure detector for tests.

    Suspicions are injected and retracted explicitly by the test, so
    scenarios like "suspect the coordinator exactly between its proposal and
    the acks" are expressed directly. Starts with an empty suspect list. *)

type t

val create : unit -> t

val fd : t -> Fd.t
(** The service view consumed by protocols. *)

val suspect : t -> Pid.t -> unit
(** Add a process to the suspect list and fire listeners. Idempotent. *)

val restore : t -> Pid.t -> unit
(** Remove a process from the suspect list. Idempotent. *)

val suspects : t -> Pid.t list
(** Current suspect list, ascending. *)
