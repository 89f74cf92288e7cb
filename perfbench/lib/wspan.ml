type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = {
  on : bool;
  mutable closed : span list;  (* newest first *)
  mutable next : int;
  mutable open_ : int list;  (* innermost first *)
}

let create ~enabled = { on = enabled; closed = []; next = 1; open_ = [] }

let record t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> 0 in
    t.open_ <- id :: t.open_;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; parent; name; start; stop } :: t.closed
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration s = s.stop -. s.start

let self_time all s =
  let children =
    List.filter_map
      (fun c ->
        if c.parent = s.id then
          let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
          if b > a then Some (a, b) else None
        else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, s.start) children
  in
  duration s -. covered

let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 t.closed
