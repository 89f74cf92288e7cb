open Repro_sim
open Repro_core

type arrival = Uniform | Poisson

type t = {
  group : Group.t;
  size : int;
  arrival : arrival;
  interval_ns : float; (* mean inter-arrival per process *)
  rng : Rng.t;
  mutable stopped : bool;
  mutable offered : int;
}

let next_gap t =
  match t.arrival with
  | Uniform -> t.interval_ns
  | Poisson -> Rng.exponential t.rng ~mean:t.interval_ns

let rec offer_loop t pid =
  if not t.stopped then begin
    Group.abcast t.group pid ~size:t.size;
    t.offered <- t.offered + 1;
    let gap = Time.span_ns (max 1 (int_of_float (next_gap t))) in
    Engine.post_after (Group.engine t.group) gap (fun () -> offer_loop t pid)
  end

let start group ~offered_load ~size ?(arrival = Uniform) () =
  if offered_load <= 0.0 then invalid_arg "Generator.start: offered_load must be > 0";
  let n = (Group.params group).Params.n in
  let rate_per_process = offered_load /. float_of_int n in
  let interval_ns = 1e9 /. rate_per_process in
  let t =
    {
      group;
      size;
      arrival;
      interval_ns;
      rng = Rng.split (Engine.rng (Group.engine group));
      stopped = false;
      offered = 0;
    }
  in
  (* Stagger the first offers so processes do not fire in lockstep. *)
  List.iter
    (fun pid ->
      let offset =
        Time.span_ns
          (max 1 (int_of_float (interval_ns *. float_of_int pid /. float_of_int n)))
      in
      Engine.post_after (Group.engine group) offset (fun () -> offer_loop t pid))
    (Repro_net.Pid.all ~n);
  t

let stop t = t.stopped <- true
let offered t = t.offered

(* ---- Snapshot ---- *)

module Snap = Snapshot

let snapshot ?(name = "workload.generator") t =
  let rng = Rng.snapshot ~name:(name ^ ".rng") t.rng in
  Snap.make ~name ~version:1
    ~data:(Snap.pack rng)
    [
      ("stopped", Snap.Bool t.stopped);
      ("offered", Snap.Int t.offered);
      ("rng_state", List.assoc "state" rng.Snap.fields);
    ]
