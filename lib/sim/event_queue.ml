(* An indexed binary min-heap keyed by [(time, seq)], with [seq] the
   insertion counter: pops come out in ascending [(time, seq)] order, so
   same-instant events pop in insertion order and the whole-simulation
   determinism argument is unchanged (see the .mli).

   Layout: the heap is three parallel arrays indexed by heap position —
   [times], [seqs] and [ids] — so a sift compares and moves unboxed ints
   only and crosses no write barrier. An event's value sits in [values]
   at its id, written once at push and cleared once when the event
   leaves. Per id, [pos] is its heap position and [gen] the seq of the
   event it holds ([-1] when free). [ids] is a permutation of every id:
   positions [0, pending) are the heap and the rest are the free ids, so
   taking or returning an id moves nothing.

   A handle is [(id, seq)]. Cancel removes the event at once, in
   O(log n), so the heap holds only pending events; the [gen] check
   makes a stale or double cancel a no-op after the id was reused.

   The sift loops index without bounds checks: a heap position is below
   [pending] and an id below the capacity, which [grow] keeps at least
   [pending]. Only [cancel] takes an index from outside, and checks it. *)

type 'a slots = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable ids : int array;
  mutable pos : int array;
  mutable gen : int array;
  mutable values : 'a array;
  filler : 'a;
      (* What a free value slot holds: the first value ever pushed, which
         the queue therefore keeps for as long as it is reachable. *)
}

type 'a t = {
  mutable slots : 'a slots option; (* made at the first push, for [filler] *)
  mutable pending : int;
  mutable next_seq : int;
}

type handle = { id : int; seq : int }

let ns (time : Time.t) = (time :> int)
let initial_capacity = 16

let create () = { slots = None; pending = 0; next_seq = 0 }

let make_slots filler =
  let n = initial_capacity in
  {
    times = Array.make n Time.zero;
    seqs = Array.make n 0;
    ids = Array.init n Fun.id;
    pos = Array.make n 0;
    gen = Array.make n (-1);
    values = Array.make n filler;
    filler;
  }

(* Called when every id is in the heap: double every array, and the new
   ids join the free range past the heap. *)
let grow s =
  let cap = Array.length s.ids in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  s.times <- extend s.times Time.zero;
  s.seqs <- extend s.seqs 0;
  s.ids <- Array.init (2 * cap) (fun i -> if i < cap then s.ids.(i) else i);
  s.pos <- extend s.pos 0;
  s.gen <- extend s.gen (-1);
  s.values <- extend s.values s.filler

let[@inline] time_at s i = ns (Array.unsafe_get s.times i)
let[@inline] seq_at s i = Array.unsafe_get s.seqs i
let[@inline] id_at s i = Array.unsafe_get s.ids i

(* [(ta, sa)] pops before [(tb, sb)]. *)
let[@inline] before (ta : int) (sa : int) (tb : int) (sb : int) =
  ta < tb || (ta = tb && sa < sb)

let[@inline] place s i time seq id =
  Array.unsafe_set s.times i time;
  Array.unsafe_set s.seqs i seq;
  Array.unsafe_set s.ids i id;
  Array.unsafe_set s.pos id i

(* Move the entry at heap position [src] into the hole at [dst]. *)
let[@inline] move s src dst =
  place s dst (Array.unsafe_get s.times src) (seq_at s src) (id_at s src)

(* Settle [(time, seq, id)] into the hole at [i] or above it. *)
let rec sift_up s i time seq id =
  if i = 0 then place s i time seq id
  else
    let p = (i - 1) / 2 in
    if before (ns time) seq (time_at s p) (seq_at s p) then begin
      move s p i;
      sift_up s p time seq id
    end
    else place s i time seq id

(* Settle [(time, seq, id)] into the hole at [i] or below it, in a heap
   of [n] entries. *)
let rec sift_down s n i time seq id =
  let l = (2 * i) + 1 in
  if l >= n then place s i time seq id
  else
    let c =
      let r = l + 1 in
      if r < n && before (time_at s r) (seq_at s r) (time_at s l) (seq_at s l) then r
      else l
    in
    if before (time_at s c) (seq_at s c) (ns time) seq then begin
      move s c i;
      sift_down s n c time seq id
    end
    else place s i time seq id

(* Take the entry at heap position [i] out of the heap and free its id:
   the last entry fills the hole and the freed id takes the last slot,
   which is now past the heap. *)
let remove_at t s i =
  let id = id_at s i in
  let last = t.pending - 1 in
  t.pending <- last;
  Array.unsafe_set s.gen id (-1);
  s.values.(id) <- s.filler;
  if i < last then begin
    let time = Array.unsafe_get s.times last and seq = seq_at s last in
    let moved = id_at s last in
    Array.unsafe_set s.ids last id;
    let p = (i - 1) / 2 in
    if i > 0 && before (ns time) seq (time_at s p) (seq_at s p) then
      sift_up s i time seq moved
    else sift_down s last i time seq moved
  end

(* Insert under the next insertion sequence number; returns the id. *)
let push_id t ~time value =
  let s =
    match t.slots with
    | Some s -> s
    | None ->
      let s = make_slots value in
      t.slots <- Some s;
      s
  in
  let n = t.pending in
  if n = Array.length s.ids then grow s;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let id = id_at s n in
  Array.unsafe_set s.gen id seq;
  s.values.(id) <- value;
  t.pending <- n + 1;
  sift_up s n time seq id;
  id

let push t ~time value =
  let seq = t.next_seq in
  let id = push_id t ~time value in
  { id; seq }

let push_unit t ~time value = ignore (push_id t ~time value : int)

let cancel t h =
  match t.slots with
  | Some s when s.gen.(h.id) = h.seq -> remove_at t s s.pos.(h.id)
  | _ -> ()

let pop t =
  match t.slots with
  | Some s when t.pending > 0 ->
    let time = s.times.(0) and value = s.values.(id_at s 0) in
    remove_at t s 0;
    Some (time, value)
  | _ -> None

let pop_apply_until t ~limit f =
  match t.slots with
  | Some s when t.pending > 0 && time_at s 0 <= ns limit ->
    let time = s.times.(0) and value = s.values.(id_at s 0) in
    remove_at t s 0;
    f time value;
    true
  | _ -> false

let never = Time.of_ns max_int
let pop_apply t f = pop_apply_until t ~limit:never f

let peek_time t =
  match t.slots with Some s when t.pending > 0 -> Some s.times.(0) | _ -> None

let is_empty t = t.pending = 0
let length t = t.pending

let snapshot t =
  Snapshot.make ~name:"sim.event_queue" ~version:2
    [ ("pending", Snapshot.Int t.pending); ("next_seq", Snapshot.Int t.next_seq) ]
