open Repro_net

type t = {
  mutable suspected : Pid.t list;
  mutable listeners : (Pid.t -> unit) list;
}

let create () = { suspected = []; listeners = [] }

let fd t =
  Fd.make
    ~is_suspected:(fun p -> List.mem p t.suspected)
    ~add_listener:(fun f -> t.listeners <- f :: t.listeners)

let suspect t p =
  if not (List.mem p t.suspected) then begin
    t.suspected <- p :: t.suspected;
    List.iter (fun f -> f p) (List.rev t.listeners)
  end

let restore t p = t.suspected <- List.filter (fun q -> q <> p) t.suspected
let suspects t = List.sort Pid.compare t.suspected
