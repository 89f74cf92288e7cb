type t = {
  engine : Engine.t;
  mutable free_at : Time.t; (* instant the last queued item completes *)
  mutable busy_ns : int;
}

let create engine = { engine; free_at = Time.zero; busy_ns = 0 }

let submit t ~cost thunk =
  let now = Engine.now t.engine in
  let start = Time.max t.free_at now in
  let finish = Time.add start cost in
  t.free_at <- finish;
  t.busy_ns <- t.busy_ns + Time.span_to_ns cost;
  Engine.post_at t.engine finish thunk

let charge t cost =
  let start = Time.max t.free_at (Engine.now t.engine) in
  t.free_at <- Time.add start cost;
  t.busy_ns <- t.busy_ns + Time.span_to_ns cost

let busy_until t = Time.max t.free_at (Engine.now t.engine)
let busy_time t = Time.span_ns t.busy_ns

let utilization t ~since =
  let now = Engine.now t.engine in
  let wall = Time.span_to_ns (Time.diff now since) in
  if wall = 0 then 0.0
  else
    let busy = float_of_int (min t.busy_ns wall) in
    busy /. float_of_int wall

let snapshot ?(name = "sim.cpu") t =
  Snapshot.make ~name ~version:2
    [
      ("free_at_ns", Snapshot.Int (Time.to_ns t.free_at));
      ("busy_ns", Snapshot.Int t.busy_ns);
    ]
