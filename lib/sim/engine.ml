(* The clock sits in a cell of its own, so that a reader of it ([clock])
   holds that cell and not the engine, whose queue reaches the whole
   simulated world. *)
type clock = { mutable now : Time.t }

type t = {
  queue : (unit -> unit) Event_queue.t;
  clock : clock;
  root_rng : Rng.t;
  mutable executed : int;
  dispatch : Time.t -> (unit -> unit) -> unit;
      (* The single dispatch point of the hot loop: advance the clock,
         count, run. Built once, so that neither [run] nor [step]
         allocates. *)
}

type timer = Event_queue.handle

let create ?(seed = 0) () =
  let queue = Event_queue.create () and clock = { now = Time.zero } in
  let root_rng = Rng.create ~seed in
  let rec t =
    {
      queue;
      clock;
      root_rng;
      executed = 0;
      dispatch =
        (fun time thunk ->
          clock.now <- time;
          t.executed <- t.executed + 1;
          thunk ());
    }
  in
  t

let now t = t.clock.now

let clock t =
  let c = t.clock in
  fun () -> c.now

let rng t = t.root_rng

let schedule_at t time thunk =
  if Time.(time < t.clock.now) then invalid_arg "Engine.schedule_at: instant in the past";
  Event_queue.push t.queue ~time thunk

let schedule_after t delay thunk = schedule_at t (Time.add t.clock.now delay) thunk

let post_at t time thunk =
  if Time.(time < t.clock.now) then invalid_arg "Engine.post_at: instant in the past";
  Event_queue.push_unit t.queue ~time thunk

let post_after t delay thunk = post_at t (Time.add t.clock.now delay) thunk
let cancel t timer = Event_queue.cancel t.queue timer

let step t = Event_queue.pop_apply t.queue t.dispatch

let run t =
  while Event_queue.pop_apply t.queue t.dispatch do
    ()
  done

let run_until t limit =
  while Event_queue.pop_apply_until t.queue ~limit t.dispatch do
    ()
  done;
  if Time.(t.clock.now < limit) then t.clock.now <- limit

let pending t = Event_queue.length t.queue
let events_executed t = t.executed

let snapshot t =
  Snapshot.make ~name:"sim.engine" ~version:1
    [
      ("clock_ns", Snapshot.Int (Time.to_ns t.clock.now));
      ("executed", Snapshot.Int t.executed);
      ("pending", Snapshot.Int (Event_queue.length t.queue));
    ]

let rng_snapshot t = Rng.snapshot ~name:"sim.engine.rng" t.root_rng
let queue_snapshot t = Event_queue.snapshot t.queue
