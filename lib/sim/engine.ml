type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Time.t;
  root_rng : Rng.t;
  mutable executed : int;
}

type timer = Event_queue.handle

let create ?(seed = 0) () =
  {
    queue = Event_queue.create ();
    clock = Time.zero;
    root_rng = Rng.create ~seed;
    executed = 0;
  }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t time thunk =
  if Time.(time < t.clock) then invalid_arg "Engine.schedule_at: instant in the past";
  Event_queue.push t.queue ~time thunk

let schedule_after t delay thunk = schedule_at t (Time.add t.clock delay) thunk

let post_at t time thunk =
  if Time.(time < t.clock) then invalid_arg "Engine.post_at: instant in the past";
  Event_queue.push_unit t.queue ~time thunk

let post_after t delay thunk = post_at t (Time.add t.clock delay) thunk
let cancel t timer = Event_queue.cancel t.queue timer

(* The single dispatch point of the hot loop: advance the clock, count,
   run. Top-level so [exec t] is one partial application per [run] —
   the per-event path allocates nothing. *)
let exec t time thunk =
  t.clock <- time;
  t.executed <- t.executed + 1;
  thunk ()

let step t = Event_queue.pop_apply t.queue (exec t)

let run t =
  let f = exec t in
  while Event_queue.pop_apply t.queue f do
    ()
  done

let run_until t limit =
  let f = exec t in
  while Event_queue.pop_apply_until t.queue ~limit f do
    ()
  done;
  if Time.(t.clock < limit) then t.clock <- limit

let pending t = Event_queue.length t.queue
let events_executed t = t.executed

let snapshot t =
  Snapshot.make ~name:"sim.engine" ~version:1
    [
      ("clock_ns", Snapshot.Int (Time.to_ns t.clock));
      ("executed", Snapshot.Int t.executed);
      ("pending", Snapshot.Int (Event_queue.length t.queue));
    ]

let rng_snapshot t = Rng.snapshot ~name:"sim.engine.rng" t.root_rng
let queue_snapshot t = Event_queue.snapshot t.queue
