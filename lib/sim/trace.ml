(* Newest first: [record] is one cons, and [fold_right] walks the list
   as it lies. *)
type 'a t = { mutable rev_events : 'a list; mutable length : int }

let create () = { rev_events = []; length = 0 }

let record t event =
  t.rev_events <- event :: t.rev_events;
  t.length <- t.length + 1

let events t = List.rev t.rev_events
let length t = t.length
let fold_right f t init = List.fold_left (fun acc e -> f e acc) init t.rev_events

(* Append [src]'s events onto [into], oldest first, until [into] holds
   [limit] events; the rest are counted, not kept. [map] rewrites each
   event on the way in — the observability layer uses it to renumber
   span ids. *)
let absorb ?(limit = max_int) ?(map = Fun.id) ~into src =
  List.fold_left
    (fun dropped e ->
      if into.length < limit then begin
        record into (map e);
        dropped
      end
      else dropped + 1)
    0 (events src)
