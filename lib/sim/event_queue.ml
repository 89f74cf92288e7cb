(* A calendar queue (R. Brown, CACM 31(10), 1988), specialised for the
   near-monotone timer pattern of a discrete-event simulation. The
   observable contract is identical to the binary heap it replaced — pops
   come out in ascending [(time, seq)] order with [seq] assigned at
   insertion, so same-instant events pop in insertion order and the
   whole-simulation determinism argument is unchanged (see the .mli).

   Layout: a power-of-two array of buckets. Bucket [i] holds the events
   whose [time lsr width_log] is congruent to [i] modulo the bucket
   count, as a sorted intrusive singly-linked list (ascending
   [(time, seq)]) with a tail pointer for the O(1) same-instant append
   that dominates under FIFO timer traffic. A pop resumes a cyclic scan
   at [cur_slot]: an event found at the head of the current slot whose
   instant falls inside the slot's current "year window" is the global
   minimum. If a whole cycle finds nothing, the next event is more than
   one year ahead and a direct minimum-over-heads search jumps the scan
   there. The bucket count doubles/halves with occupancy and the bucket
   width is re-estimated from the live events' mean spacing on each
   rehash, so both parameters track the workload; every decision depends
   only on queue content, never on wall time, so rehashing cannot perturb
   determinism.

   Cells are mutable and pooled on a free list, so the steady-state
   push/pop cycle of a running simulation allocates nothing. A handle
   names a cell *generation* — the [(cell, seq)] pair — and a freed cell
   is stamped [seq = -1], so cancelling through a stale handle after the
   cell was recycled is a guaranteed no-op instead of a corruption.

   The sentinel [nil] terminates every list; it is recognised by its
   unique [seq] ([nil_seq]) rather than by physical identity, which keeps
   the module inside the repo's determinism lint (no [==] at mutable
   types). *)

type 'a cell = {
  mutable time : Time.t;
  mutable seq : int; (* nil_seq: sentinel; -1: freed; >= 0: resident *)
  mutable value : 'a;
  mutable cancelled : bool;
  mutable next : 'a cell; (* [nil]-terminated; the free list reuses it *)
}

type handle = H : 'a cell * int -> handle

(* Bucket array plus scan state. Created lazily at the first push because
   the [nil] sentinel needs an ['a] value to exist. It permanently holds
   the first value pushed: in an engine that is the first scheduled
   thunk, which pins whatever that closure reaches (usually the whole
   simulated world) for as long as the queue is reachable. Freed cells
   are re-pointed at it, so popped payloads do not outlive their event. *)
type 'a slots = {
  nil : 'a cell;
  mutable buckets : 'a cell array; (* list heads; [nil] means empty *)
  mutable tails : 'a cell array; (* meaningful only for non-empty buckets *)
  mutable mask : int; (* bucket count - 1; the count is a power of two *)
  mutable width_log : int; (* log2 of the bucket width in ns *)
  mutable cur_slot : int; (* where the scan for the next pop resumes *)
  mutable bucket_top : int; (* exclusive end (ns) of cur_slot's window *)
  mutable free : 'a cell; (* free-list head; [nil] means empty *)
}

type 'a t = {
  mutable slots : 'a slots option;
  mutable size : int; (* resident cells, cancelled included *)
  mutable pending : int; (* live (non-cancelled) cells *)
  mutable next_seq : int;
}

let nil_seq = min_int
let is_nil c = c.seq = nil_seq
let ns (time : Time.t) = (time :> int)
let min_buckets = 16

let create () = { slots = None; size = 0; pending = 0; next_seq = 0 }

let make_slots ~time value =
  let rec nil = { time; seq = nil_seq; value; cancelled = true; next = nil } in
  {
    nil;
    buckets = Array.make min_buckets nil;
    tails = Array.make min_buckets nil;
    mask = min_buckets - 1;
    width_log = 13 (* 8.192 us; re-estimated on the first rehash *);
    cur_slot = 0;
    bucket_top = 0;
    free = nil;
  }

let slot_of s tns = (tns lsr s.width_log) land s.mask
let window_top s tns = ((tns lsr s.width_log) + 1) lsl s.width_log

(* Predecessor of the insertion point for [(tns, seq)] inside a bucket
   list, starting at [prev] (which must sort before the new cell). The
   [is_nil] guard is unreachable when the caller has already excluded the
   tail-append case, but keeps a corrupted list from looping forever. *)
let rec find_prev tns seq prev =
  let nx = prev.next in
  if is_nil nx then prev
  else
    let nx_t = ns nx.time in
    if tns < nx_t || (tns = nx_t && seq < nx.seq) then prev
    else find_prev tns seq nx

(* Insert a resident cell into its bucket, keeping the list sorted by
   [(time, seq)]. The common case under timer traffic — later than
   everything already there — is the O(1) tail check. *)
let insert s cell =
  let tns = ns cell.time in
  let i = slot_of s tns in
  let head = s.buckets.(i) in
  if is_nil head then begin
    cell.next <- s.nil;
    s.buckets.(i) <- cell;
    s.tails.(i) <- cell
  end
  else begin
    let tl = s.tails.(i) in
    let tl_t = ns tl.time in
    if tl_t < tns || (tl_t = tns && tl.seq < cell.seq) then begin
      cell.next <- s.nil;
      tl.next <- cell;
      s.tails.(i) <- cell
    end
    else begin
      let h_t = ns head.time in
      if tns < h_t || (tns = h_t && cell.seq < head.seq) then begin
        cell.next <- head;
        s.buckets.(i) <- cell
      end
      else begin
        let prev = find_prev tns cell.seq head in
        cell.next <- prev.next;
        prev.next <- cell
      end
    end
  end

let free_cell s cell =
  cell.seq <- -1;
  cell.cancelled <- true;
  cell.value <- s.nil.value;
  cell.next <- s.free;
  s.free <- cell

let unlink_head s i head =
  let nx = head.next in
  s.buckets.(i) <- nx;
  if is_nil nx then s.tails.(i) <- s.nil

let ilog2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Rebuild the bucket array sized to the live population; cancelled cells
   are collected here. Runs amortised-rarely (doubling policy). *)
let resize t s =
  let kept = ref s.nil in
  let live = ref 0 in
  let tmin = ref max_int and tmax = ref 0 in
  for i = 0 to s.mask do
    let c = ref s.buckets.(i) in
    while not (is_nil !c) do
      let cell = !c in
      c := cell.next;
      if cell.cancelled then begin
        t.size <- t.size - 1;
        free_cell s cell
      end
      else begin
        incr live;
        let tn = ns cell.time in
        if tn < !tmin then tmin := tn;
        if tn > !tmax then tmax := tn;
        cell.next <- !kept;
        kept := cell
      end
    done
  done;
  let nbuckets =
    let rec pow2 k = if k >= !live then k else pow2 (k * 2) in
    pow2 min_buckets
  in
  if !live > 1 then begin
    (* Aim for a bucket width of about the mean spacing of the live
       events, clamped to [16 ns, 64 s] per bucket. Event times are
       heavily skewed towards the near future (deliveries) with a thin
       far tail (timers), so the mean overestimates typical spacing —
       erring narrow keeps the hot near-term chains short, and the tail
       only makes the cyclic scan skip a few more empty buckets. *)
    let gap = max 1 ((!tmax - !tmin) / !live) in
    let wl = ilog2 gap in
    s.width_log <- (if wl < 4 then 4 else if wl > 36 then 36 else wl)
  end;
  s.mask <- nbuckets - 1;
  s.buckets <- Array.make nbuckets s.nil;
  s.tails <- Array.make nbuckets s.nil;
  let c = ref !kept in
  while not (is_nil !c) do
    let cell = !c in
    c := cell.next;
    insert s cell
  done;
  if t.pending > 0 then begin
    s.cur_slot <- slot_of s !tmin;
    s.bucket_top <- window_top s !tmin
  end

(* Insert under the next insertion sequence number. [insert] keeps
   buckets sorted by [(time, seq)], so same-instant events pop in
   insertion order. *)
let push_cell t ~time value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s =
    match t.slots with
    | Some s -> s
    | None ->
      let s = make_slots ~time value in
      t.slots <- Some s;
      s
  in
  let cell =
    if is_nil s.free then { time; seq; value; cancelled = false; next = s.nil }
    else begin
      let c = s.free in
      s.free <- c.next;
      c.time <- time;
      c.seq <- seq;
      c.value <- value;
      c.cancelled <- false;
      c
    end
  in
  insert s cell;
  t.size <- t.size + 1;
  t.pending <- t.pending + 1;
  let tns = ns time in
  if t.pending = 1 || tns < s.bucket_top - (1 lsl s.width_log) then begin
    (* The new event precedes the scan window (or the queue was empty):
       rewind the scan so it cannot be missed. Rewinding is always safe;
       skipping forward is only done when nothing was pending. *)
    s.cur_slot <- slot_of s tns;
    s.bucket_top <- window_top s tns
  end;
  if t.size > 2 * (s.mask + 1) then resize t s;
  cell

let push t ~time value =
  let cell = push_cell t ~time value in
  H (cell, cell.seq)

let push_unit t ~time value = ignore (push_cell t ~time value : _ cell)

(* Full cycle without a hit: the next event is more than one year ahead.
   Take the minimum over bucket heads directly and jump the scan there.
   Cancelled prefixes are collected so every inspected head is live. *)
let direct_search t s =
  let best = ref s.nil in
  for i = 0 to s.mask do
    let rec clean () =
      let h = s.buckets.(i) in
      if (not (is_nil h)) && h.cancelled then begin
        unlink_head s i h;
        t.size <- t.size - 1;
        free_cell s h;
        clean ()
      end
    in
    clean ();
    let h = s.buckets.(i) in
    if not (is_nil h) then begin
      let b = !best in
      if
        is_nil b
        || ns h.time < ns b.time
        || (ns h.time = ns b.time && h.seq < b.seq)
      then best := h
    end
  done;
  let front = !best in
  (* [pending > 0] at the caller, so a live head exists. *)
  let tns = ns front.time in
  s.cur_slot <- slot_of s tns;
  s.bucket_top <- window_top s tns;
  front

(* The cyclic scan: visit [steps] more slots, each paired with its year
   window [top - width, top). A live head inside the window is the global
   minimum — every earlier window was empty when the scan passed it, and
   pushes behind the scan rewind it. Top-level (not a closure) so the pop
   path allocates nothing. *)
let rec scan_front t s width slot top steps =
  let head = s.buckets.(slot) in
  if (not (is_nil head)) && head.cancelled then begin
    unlink_head s slot head;
    t.size <- t.size - 1;
    free_cell s head;
    scan_front t s width slot top steps
  end
  else if (not (is_nil head)) && ns head.time < top then begin
    s.cur_slot <- slot;
    s.bucket_top <- top;
    head
  end
  else if steps = 0 then direct_search t s
  else scan_front t s width ((slot + 1) land s.mask) (top + width) (steps - 1)

(* The earliest live cell, still linked at the head of bucket
   [cur_slot]; [nil] when nothing is pending. *)
let find_front t s =
  if t.pending = 0 then s.nil
  else scan_front t s (1 lsl s.width_log) s.cur_slot s.bucket_top (s.mask + 1)

(* Detach the front cell returned by [find_front] and shrink the table if
   occupancy dropped far below the bucket count. *)
let take_front t s front =
  unlink_head s s.cur_slot front;
  t.size <- t.size - 1;
  t.pending <- t.pending - 1;
  if s.mask + 1 > min_buckets && t.size * 4 < s.mask + 1 then resize t s

let cancel t (H (cell, seq)) =
  if cell.seq = seq && not cell.cancelled then begin
    cell.cancelled <- true;
    t.pending <- t.pending - 1
  end

let pop t =
  match t.slots with
  | None -> None
  | Some s ->
    let front = find_front t s in
    if is_nil front then None
    else begin
      let time = front.time and value = front.value in
      take_front t s front;
      free_cell s front;
      Some (time, value)
    end

let pop_apply t f =
  match t.slots with
  | None -> false
  | Some s ->
    let front = find_front t s in
    if is_nil front then false
    else begin
      let time = front.time and value = front.value in
      take_front t s front;
      free_cell s front;
      f time value;
      true
    end

let pop_apply_until t ~limit f =
  match t.slots with
  | None -> false
  | Some s ->
    let front = find_front t s in
    if is_nil front || ns front.time > ns limit then false
    else begin
      let time = front.time and value = front.value in
      take_front t s front;
      free_cell s front;
      f time value;
      true
    end

let peek_time t =
  match t.slots with
  | None -> None
  | Some s ->
    let front = find_front t s in
    if is_nil front then None else Some front.time

let is_empty t = t.pending = 0
let length t = t.pending

let snapshot t =
  Snapshot.make ~name:"sim.event_queue" ~version:1
    [
      ("pending", Snapshot.Int t.pending);
      ("resident", Snapshot.Int t.size);
      ("next_seq", Snapshot.Int t.next_seq);
    ]
