open Repro_sim

type t = {
  cpu : Cpu.t;
  dispatch_cost : Time.span;
  mutable emissions : int;
}

type 'a port = {
  bus : t;
  name : string;
  mutable subscribers : ('a -> unit) list; (* subscription order *)
}

let create ~cpu ~dispatch_cost = { cpu; dispatch_cost; emissions = 0 }
let port bus name = { bus; name; subscribers = [] }

(* Append at subscribe time (cold) so [emit] (hot, per message) iterates
   the list as stored instead of reversing it per emission. *)
let subscribe port f = port.subscribers <- port.subscribers @ [ f ]

let emit port event =
  let bus = port.bus in
  bus.emissions <- bus.emissions + 1;
  Cpu.charge bus.cpu bus.dispatch_cost;
  List.iter (fun f -> f event) port.subscribers

let emissions t = t.emissions
let port_name port = port.name

(* ---- Snapshot ---- *)

let snapshot ~name t =
  Snapshot.make ~name ~version:1 [ ("emissions", Snapshot.Int t.emissions) ]
