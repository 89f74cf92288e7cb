open Repro_sim

(** Typed event bus for microprotocol composition.

    Models the event-based binding of Cactus-style protocol frameworks
    (§5.3.1 of the paper: the experiments ran Fortika modules composed with
    Cactus). Modules interact only by emitting on and subscribing to named
    ports; each emission crosses a module boundary and is charged a fixed
    dispatch cost to the owning CPU — the {e framework} share of the
    modularity overhead, as opposed to the {e algorithmic} share the paper
    focuses on. The cost is a parameter so it can be ablated to zero. *)

type t

type 'a port
(** A typed, named connection point carrying events of type ['a]. *)

val create : cpu:Cpu.t -> dispatch_cost:Time.span -> t
(** A bus whose emissions charge [dispatch_cost] to [cpu]. *)

val port : t -> string -> 'a port
(** A fresh port on the bus. The name is for diagnostics only. *)

val subscribe : 'a port -> ('a -> unit) -> unit
(** Add a handler. Handlers run in subscription order on each emission. *)

val emit : 'a port -> 'a -> unit
(** Charge the dispatch cost and deliver the event to every subscriber,
    synchronously. An emission with no subscribers still pays the cost. *)

val emissions : t -> int
(** Total events emitted on all ports of this bus. *)

val port_name : 'a port -> string
(** The diagnostic name given at creation. *)

val snapshot : name:string -> t -> Snapshot.section
(** Boundary-crossing counter; subscriber closures ride the world blob. *)
