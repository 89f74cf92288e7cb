type t = {
  window : int;
  mutable in_flight : int;
  mutable on_space : unit -> unit;
}

let create ~window =
  if window < 1 then invalid_arg "Flow_control.create: window must be >= 1";
  { window; in_flight = 0; on_space = ignore }

let has_room t = t.in_flight < t.window

let acquire t =
  if not (has_room t) then invalid_arg "Flow_control.acquire: window full";
  t.in_flight <- t.in_flight + 1

let release t =
  if t.in_flight > 0 then begin
    t.in_flight <- t.in_flight - 1;
    t.on_space ()
  end

let in_flight t = t.in_flight
let set_on_space t f = t.on_space <- f

let snapshot ~name t =
  Repro_sim.Snapshot.make ~name ~version:1
    [
      ("window", Repro_sim.Snapshot.Int t.window);
      ("in_flight", Repro_sim.Snapshot.Int t.in_flight);
    ]
