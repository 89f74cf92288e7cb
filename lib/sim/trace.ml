type 'a entry = { at : Time.t; event : 'a }

type 'a t = {
  mutable now : unit -> Time.t;
  mutable rev_entries : 'a entry list;
  mutable length : int;
}

let create_with_clock now = { now; rev_entries = []; length = 0 }
let create engine = create_with_clock (fun () -> Engine.now engine)
let set_clock t now = t.now <- now

let record t event =
  t.rev_entries <- { at = t.now (); event } :: t.rev_entries;
  t.length <- t.length + 1

let entries t = List.rev t.rev_entries
let events t = List.rev_map (fun e -> e.event) t.rev_entries
let length t = t.length

(* Append [src]'s entries onto [into], oldest first, preserving their
   stamps (the clock is not consulted), until [into] holds [limit]
   entries; the rest are counted, not kept. [map] rewrites each event on
   the way in — the observability layer uses it to renumber span ids. *)
let absorb ?(limit = max_int) ?map ~into src =
  let map = match map with Some f -> f | None -> fun e -> e in
  List.fold_left
    (fun dropped e ->
      if into.length < limit then begin
        into.rev_entries <- { e with event = map e.event } :: into.rev_entries;
        into.length <- into.length + 1;
        dropped
      end
      else dropped + 1)
    0 (entries src)
