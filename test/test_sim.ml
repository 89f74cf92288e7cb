(* Tests for the simulation substrate: virtual time, deterministic RNG,
   event queue, engine and CPU model. *)

open Repro_sim

let span_ms_f = Time.span_to_ms_float

(* ---- Time ---- *)

let test_time_basics () =
  Alcotest.(check int) "zero" 0 (Time.to_ns Time.zero);
  Alcotest.(check int) "of_ns/to_ns" 42 (Time.to_ns (Time.of_ns 42));
  Alcotest.(check int) "add" 15 (Time.to_ns (Time.add (Time.of_ns 5) (Time.span_ns 10)));
  Alcotest.(check int) "diff" 7
    (Time.span_to_ns (Time.diff (Time.of_ns 10) (Time.of_ns 3)));
  Alcotest.(check int) "span units: us" 3_000 (Time.span_to_ns (Time.span_us 3));
  Alcotest.(check int) "span units: ms" 2_000_000 (Time.span_to_ns (Time.span_ms 2));
  Alcotest.(check int) "span units: s" 1_000_000_000 (Time.span_to_ns (Time.span_s 1));
  Alcotest.(check int) "span_add" 30
    (Time.span_to_ns (Time.span_add (Time.span_ns 10) (Time.span_ns 20)));
  Alcotest.(check int) "span_scale" 50
    (Time.span_to_ns (Time.span_scale 5 (Time.span_ns 10)))

let test_time_invalid () =
  Alcotest.check_raises "negative instant" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)));
  Alcotest.check_raises "negative span" (Invalid_argument "Time.span_ns: negative")
    (fun () -> ignore (Time.span_ns (-5)));
  Alcotest.check_raises "negative diff" (Invalid_argument "Time.diff: negative duration")
    (fun () -> ignore (Time.diff (Time.of_ns 1) (Time.of_ns 2)))

let test_time_order () =
  let a = Time.of_ns 1 and b = Time.of_ns 2 in
  Alcotest.(check bool) "lt" true Time.(a < b);
  Alcotest.(check bool) "le" true Time.(a <= a);
  Alcotest.(check bool) "gt" true Time.(b > a);
  Alcotest.(check int) "max" 2 (Time.to_ns (Time.max a b));
  Alcotest.(check int) "min" 1 (Time.to_ns (Time.min a b));
  Alcotest.(check (float 1e-9)) "ms float" 0.000002 (span_ms_f (Time.span_ns 2))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let child = Rng.split a in
  (* Drawing from the child must not perturb the parent's stream. *)
  for _ = 1 to 10 do
    ignore (Rng.bits64 child)
  done;
  let after_split = Rng.bits64 a in
  let c = Rng.create ~seed:3 in
  let _ = Rng.split c in
  Alcotest.(check int64) "parent stream unchanged by child draws" after_split
    (Rng.bits64 c)

let test_rng_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "int in bounds" true (x >= 0 && x < 17);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float in bounds" true (f >= 0.0 && f < 2.5)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:10.0 in
    Alcotest.(check bool) "nonnegative" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean near 10 (got %f)" mean)
    true
    (mean > 9.0 && mean < 11.0)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ---- Event queue ---- *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:(Time.of_ns 30) "c");
  ignore (Event_queue.push q ~time:(Time.of_ns 10) "a");
  ignore (Event_queue.push q ~time:(Time.of_ns 20) "b");
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "END" in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string)) "pops in time order" [ "a"; "b"; "c"; "END" ]
    [ p1; p2; p3; p4 ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  let t = Time.of_ns 5 in
  List.iter (fun v -> ignore (Event_queue.push q ~time:t v)) [ "1"; "2"; "3"; "4" ];
  let rec drain acc =
    match Event_queue.pop q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string)) "ties pop in insertion order" [ "1"; "2"; "3"; "4" ]
    (drain [])

let test_queue_cancel () =
  let q = Event_queue.create () in
  let _ = Event_queue.push q ~time:(Time.of_ns 1) "keep1" in
  let h = Event_queue.push q ~time:(Time.of_ns 2) "gone" in
  let _ = Event_queue.push q ~time:(Time.of_ns 3) "keep2" in
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  (* double cancel is a no-op *)
  Alcotest.(check int) "length after cancel" 2 (Event_queue.length q);
  let rec drain acc =
    match Event_queue.pop q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string)) "cancelled event skipped" [ "keep1"; "keep2" ] (drain [])

let test_queue_cancel_after_pop () =
  (* Regression: cancelling a handle whose event already popped must be a
     no-op — it used to drive the pending counter negative. *)
  let q = Event_queue.create () in
  let h = Event_queue.push q ~time:(Time.of_ns 1) "x" in
  ignore (Event_queue.push q ~time:(Time.of_ns 2) "y");
  ignore (Event_queue.pop q);
  Event_queue.cancel q h;
  Alcotest.(check int) "pending stays correct" 1 (Event_queue.length q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "empty at the end" 0 (Event_queue.length q);
  Alcotest.(check bool) "is_empty" true (Event_queue.is_empty q)

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty peek" true (Event_queue.peek_time q = None);
  let h = Event_queue.push q ~time:(Time.of_ns 4) "x" in
  ignore (Event_queue.push q ~time:(Time.of_ns 9) "y");
  Alcotest.(check (option int)) "peek earliest" (Some 4)
    (Option.map Time.to_ns (Event_queue.peek_time q));
  Event_queue.cancel q h;
  Alcotest.(check (option int)) "peek skips cancelled" (Some 9)
    (Option.map Time.to_ns (Event_queue.peek_time q))

(* Property: popping the queue yields (time, seq)-sorted order for any
   insertion sequence with arbitrary times. *)
let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted by (time, insertion)" ~count:300
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i time -> ignore (Event_queue.push q ~time:(Time.of_ns time) i)) times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (time, seq) -> drain ((Time.to_ns time, seq) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted && List.length popped = List.length times)

let prop_queue_cancel_subset =
  QCheck.Test.make ~name:"cancelling a subset removes exactly that subset" ~count:200
    QCheck.(pair (list (int_bound 100)) (list bool))
    (fun (times, cancels) ->
      let q = Event_queue.create () in
      let handles =
        List.mapi (fun i t -> (i, Event_queue.push q ~time:(Time.of_ns t) i)) times
      in
      let cancelled =
        List.filteri
          (fun i _ -> match List.nth_opt cancels i with Some true -> true | _ -> false)
          handles
      in
      List.iter (fun (_, h) -> Event_queue.cancel q h) cancelled;
      let cancelled_ids = List.map fst cancelled in
      let rec drain acc =
        match Event_queue.pop q with Some (_, v) -> drain (v :: acc) | None -> acc
      in
      let survivors = drain [] in
      List.for_all (fun i -> not (List.mem i survivors)) cancelled_ids
      && List.length survivors = List.length times - List.length cancelled_ids)

(* ---- Event queue vs reference binary heap ---- *)

(* The oracle: a plain binary heap keyed by (time, seq) that cancels
   lazily, by marking. Deliberately naive — a correctness model, not a
   performance contender. *)
module Ref_heap = struct
  type 'a cell = {
    time : int;
    seq : int;
    value : 'a;
    mutable gone : bool; (* popped or cancelled *)
  }

  type 'a t = {
    mutable arr : 'a cell option array;
    mutable size : int;
    mutable next_seq : int;
    mutable pending : int;
  }

  let create () = { arr = Array.make 16 None; size = 0; next_seq = 0; pending = 0 }
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)
  let get t i = match t.arr.(i) with Some c -> c | None -> assert false

  let swap t i j =
    let tmp = t.arr.(i) in
    t.arr.(i) <- t.arr.(j);
    t.arr.(j) <- tmp

  let push t ~time value =
    if t.size = Array.length t.arr then begin
      let arr' = Array.make (2 * t.size) None in
      Array.blit t.arr 0 arr' 0 t.size;
      t.arr <- arr'
    end;
    let c = { time; seq = t.next_seq; value; gone = false } in
    t.next_seq <- t.next_seq + 1;
    t.pending <- t.pending + 1;
    let i = ref t.size in
    t.size <- t.size + 1;
    t.arr.(!i) <- Some c;
    while !i > 0 && before (get t !i) (get t ((!i - 1) / 2)) do
      let p = (!i - 1) / 2 in
      swap t !i p;
      i := p
    done;
    c

  let cancel t c =
    (* Cancelling a popped or already-cancelled event is a no-op, exactly
       like a stale Event_queue handle. *)
    if not c.gone then begin
      c.gone <- true;
      t.pending <- t.pending - 1
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < t.size && before (get t l) (get t !m) then m := l;
    if r < t.size && before (get t r) (get t !m) then m := r;
    if !m <> i then begin
      swap t i !m;
      sift_down t !m
    end

  let rec pop t =
    if t.size = 0 then None
    else begin
      let c = get t 0 in
      t.size <- t.size - 1;
      t.arr.(0) <- t.arr.(t.size);
      t.arr.(t.size) <- None;
      if t.size > 0 then sift_down t 0;
      if c.gone then pop t (* cancelled: skip *)
      else begin
        c.gone <- true;
        t.pending <- t.pending - 1;
        Some (c.time, c.value)
      end
    end

  let length t = t.pending
end

type churn_op =
  | Push of int
  | Push_same (* at the instant of the previous push: a tie *)
  | Pop
  | Cancel of int (* any handle, stale ones included *)
  | Cancel_live of int (* the live event of this rank, mod the live count *)
  | Cancel_newest (* the newest live event *)

(* Property: under an arbitrary interleaving of pushes, pops and cancels,
   the queue is observably indistinguishable from the reference heap:
   same pop results (equal-time ties included), same lengths, same
   earliest instant, same residual drain order. Cancels aimed at popped
   or cancelled events exercise the handle-generation check against
   reused slots. Cancels of live events hit every heap position: rank 0
   is the root, and the newest push, when it is a tie or later than its
   parent, still sits in the last slot. *)
let prop_queue_matches_heap =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun t -> Push t) (int_bound 300));
          (2, return Push_same);
          (3, return Pop);
          (2, map (fun i -> Cancel i) (int_bound 2000));
          (2, map (fun i -> Cancel_live i) (int_bound 400));
          (1, return Cancel_newest);
        ])
  in
  let print_op = function
    | Push t -> Printf.sprintf "Push %d" t
    | Push_same -> "Push_same"
    | Pop -> "Pop"
    | Cancel i -> Printf.sprintf "Cancel %d" i
    | Cancel_live i -> Printf.sprintf "Cancel_live %d" i
    | Cancel_newest -> "Cancel_newest"
  in
  let ops_arb =
    QCheck.make
      ~print:(QCheck.Print.list print_op)
      QCheck.Gen.(list_size (int_range 0 400) op_gen)
  in
  QCheck.Test.make ~name:"event queue equivalent to reference heap under churn"
    ~count:300 ops_arb
    (fun ops ->
      let q = Event_queue.create () in
      let h = Ref_heap.create () in
      let handles = ref [] (* newest first *) in
      let npushed = ref 0 in
      let last_time = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let push time =
        let hq = Event_queue.push q ~time:(Time.of_ns time) !npushed in
        let hc = Ref_heap.push h ~time !npushed in
        handles := (hq, hc) :: !handles;
        last_time := time;
        incr npushed
      in
      (* Live events, newest first, and in pop order (rank 0 is the root). *)
      let live () = List.filter (fun (_, hc) -> not hc.Ref_heap.gone) !handles in
      let by_rank () =
        List.sort
          (fun (_, a) (_, b) ->
            compare (a.Ref_heap.time, a.Ref_heap.seq) (b.Ref_heap.time, b.Ref_heap.seq))
          (live ())
      in
      let cancel (hq, hc) =
        Event_queue.cancel q hq;
        Ref_heap.cancel h hc
      in
      List.iter
        (fun op ->
          if !ok then begin
            (match op with
            | Push time -> push time
            | Push_same -> push !last_time
            | Pop -> (
              match (Event_queue.pop q, Ref_heap.pop h) with
              | None, None -> ()
              | Some (tq, vq), Some (th, vh) -> check (Time.to_ns tq = th && vq = vh)
              | _ -> check false)
            | Cancel i ->
              if !npushed > 0 then cancel (List.nth !handles (i mod !npushed))
            | Cancel_live i -> (
              match by_rank () with
              | [] -> ()
              | l -> cancel (List.nth l (i mod List.length l)))
            | Cancel_newest -> (
              match live () with [] -> () | newest :: _ -> cancel newest));
            check (Event_queue.length q = Ref_heap.length h);
            let earliest =
              match by_rank () with (_, c) :: _ -> Some c.Ref_heap.time | [] -> None
            in
            check (Option.map Time.to_ns (Event_queue.peek_time q) = earliest)
          end)
        ops;
      let rec drain_q acc =
        match Event_queue.pop q with
        | Some (t, v) -> drain_q ((Time.to_ns t, v) :: acc)
        | None -> List.rev acc
      in
      let rec drain_h acc =
        match Ref_heap.pop h with
        | Some (t, v) -> drain_h ((t, v) :: acc)
        | None -> List.rev acc
      in
      !ok && drain_q [] = drain_h [])

let test_queue_cancel_heavy_stress () =
  (* 10k events with a deterministic pseudo-random time pattern, 90%
     cancelled — the cancellation load the retransmission-timer layers
     approximate — then stale cancels aimed at recycled pool cells. *)
  let q = Event_queue.create () in
  let n = 10_000 in
  let lcg = ref 12345 in
  let next_time () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg mod 5_000
  in
  let handles =
    Array.init n (fun i ->
        let time = next_time () in
        (time, i, Event_queue.push q ~time:(Time.of_ns time) i))
  in
  let survivors = ref [] in
  Array.iter
    (fun (time, i, h) ->
      if i mod 10 <> 0 then Event_queue.cancel q h
      else survivors := (time, i) :: !survivors)
    handles;
  Alcotest.(check int) "pending after mass cancel" (n / 10) (Event_queue.length q);
  (* seq order equals insertion order i, so sorting (time, i) pairs gives
     the expected pop order, FIFO at equal times included. *)
  let expected = List.sort compare !survivors in
  let rec drain acc =
    match Event_queue.pop q with
    | Some (t, v) -> drain ((Time.to_ns t, v) :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (pair int int))) "survivors pop sorted" expected (drain []);
  (* All cells are back in the pool. A fresh push recycles them; stale
     handles from the first generation must not touch the new event. *)
  ignore (Event_queue.push q ~time:(Time.of_ns 7) 424242);
  Array.iter (fun (_, _, h) -> Event_queue.cancel q h) handles;
  Alcotest.(check int) "stale cancels spare recycled cells" 1 (Event_queue.length q);
  match Event_queue.pop q with
  | Some (t, v) ->
    Alcotest.(check (pair int int)) "recycled cell pops" (7, 424242) (Time.to_ns t, v)
  | None -> Alcotest.fail "recycled event lost"

let test_queue_cancelled_timers_leave () =
  (* The consensus progress-timer pattern: many timers armed 500 ms
     ahead, nearly all cancelled long before they come due. A cancelled
     timer leaves the queue at once, so nothing but the survivor is
     held. *)
  let q = Event_queue.create () in
  let n = 10_000 and keep = 7_777 in
  let due i = Time.of_ns (500_000_000 + (i * 1_000)) in
  let handles = Array.init n (fun i -> Event_queue.push q ~time:(due i) i) in
  Array.iteri (fun i h -> if i <> keep then Event_queue.cancel q h) handles;
  Alcotest.(check int) "one timer left" 1 (Event_queue.length q);
  let section = Event_queue.snapshot q in
  Alcotest.(check (list string))
    "the section records nothing else" [ "pending"; "next_seq" ]
    (List.map fst section.Snapshot.fields);
  Alcotest.(check int) "section: pending" 1 (Snapshot.get_int section "pending");
  Alcotest.(check int) "section: next_seq" n (Snapshot.get_int section "next_seq");
  (match Event_queue.pop q with
  | Some (t, v) ->
    Alcotest.(check (pair int int)) "the survivor pops at its instant"
      (Time.to_ns (due keep), keep) (Time.to_ns t, v)
  | None -> Alcotest.fail "the surviving timer was lost");
  Alcotest.(check bool) "empty after" true (Event_queue.is_empty q)

let test_queue_push_unit_pop_apply () =
  let q = Event_queue.create () in
  Event_queue.push_unit q ~time:(Time.of_ns 20) "b";
  Event_queue.push_unit q ~time:(Time.of_ns 10) "a";
  Event_queue.push_unit q ~time:(Time.of_ns 20) "c";
  let acc = ref [] in
  let f t v = acc := (Time.to_ns t, v) :: !acc in
  Alcotest.(check bool) "pop_apply consumes" true (Event_queue.pop_apply q f);
  Alcotest.(check bool) "pop_apply_until respects limit" false
    (Event_queue.pop_apply_until q ~limit:(Time.of_ns 15) f);
  Alcotest.(check bool) "pop_apply_until at limit" true
    (Event_queue.pop_apply_until q ~limit:(Time.of_ns 20) f);
  Alcotest.(check bool) "last event" true (Event_queue.pop_apply q f);
  Alcotest.(check bool) "empty pop_apply" false (Event_queue.pop_apply q f);
  Alcotest.(check (list (pair int string)))
    "order with FIFO ties"
    [ (10, "a"); (20, "b"); (20, "c") ]
    (List.rev !acc)

(* ---- Engine ---- *)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule_after e (Time.span_ms 5) (fun () -> seen := 5 :: !seen));
  ignore (Engine.schedule_after e (Time.span_ms 2) (fun () -> seen := 2 :: !seen));
  Engine.run e;
  Alcotest.(check (list int)) "ordered execution" [ 5; 2 ] !seen;
  Alcotest.(check int) "clock at last event" 5_000_000 (Time.to_ns (Engine.now e))

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_after e (Time.span_ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after e (Time.span_ms 1) (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested runs after" [ "inner"; "outer" ] !log;
  Alcotest.(check int) "events executed" 2 (Engine.events_executed e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule_after e (Time.span_ms 1) (fun () -> fired := true) in
  Engine.cancel e timer;
  Engine.run e;
  Alcotest.(check bool) "cancelled timer does not fire" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_after e (Time.span_ms 1) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule_after e (Time.span_ms 10) (fun () -> fired := 10 :: !fired));
  Engine.run_until e (Time.of_ns 5_000_000);
  Alcotest.(check (list int)) "only events before limit" [ 1 ] !fired;
  Alcotest.(check int) "clock at limit" 5_000_000 (Time.to_ns (Engine.now e));
  Alcotest.(check int) "pending event remains" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "rest runs later" [ 10; 1 ] !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule_after e (Time.span_ms 2) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: instant in the past") (fun () ->
      ignore (Engine.schedule_at e (Time.of_ns 1) (fun () -> ())))

(* ---- Cpu ---- *)

let test_cpu_fifo_and_busy () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let done_at = ref [] in
  ignore
    (Engine.schedule_after e Time.span_zero (fun () ->
         Cpu.submit cpu ~cost:(Time.span_ms 3) (fun () ->
             done_at := ("a", Time.to_ns (Engine.now e)) :: !done_at);
         Cpu.submit cpu ~cost:(Time.span_ms 2) (fun () ->
             done_at := ("b", Time.to_ns (Engine.now e)) :: !done_at)));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "FIFO completion with queueing"
    [ ("b", 5_000_000); ("a", 3_000_000) ]
    !done_at;
  Alcotest.(check int) "busy time accumulated" 5_000_000
    (Time.span_to_ns (Cpu.busy_time cpu))

let test_cpu_idle_gap () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = ref 0 in
  ignore
    (Engine.schedule_after e Time.span_zero (fun () ->
         Cpu.submit cpu ~cost:(Time.span_ms 1) (fun () -> ())));
  ignore
    (Engine.schedule_after e (Time.span_ms 10) (fun () ->
         Cpu.submit cpu ~cost:(Time.span_ms 1) (fun () ->
             finish := Time.to_ns (Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "idle gap not charged" 11_000_000 !finish;
  let util = Cpu.utilization cpu ~since:Time.zero in
  Alcotest.(check bool)
    (Printf.sprintf "utilization ~2/11 (got %f)" util)
    true
    (util > 0.17 && util < 0.19)

let test_cpu_charge () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = ref 0 in
  ignore
    (Engine.schedule_after e Time.span_zero (fun () ->
         Cpu.charge cpu (Time.span_ms 4);
         Cpu.submit cpu ~cost:(Time.span_ms 1) (fun () ->
             finish := Time.to_ns (Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "charge pushes back later work" 5_000_000 !finish

(* ---- Trace ---- *)

let test_trace () =
  let tr = Trace.create () in
  List.iter (Trace.record tr) [ "one"; "two"; "three" ];
  Alcotest.(check (list string)) "events in order" [ "one"; "two"; "three" ] (Trace.events tr);
  Alcotest.(check int) "length" 3 (Trace.length tr);
  Alcotest.(check (list string)) "fold_right is List.fold_right over events"
    [ "one"; "two"; "three"; "end" ]
    (Trace.fold_right (fun e acc -> e :: acc) tr [ "end" ]);
  let into = Trace.create () in
  Trace.record into "zero";
  let dropped = Trace.absorb ~limit:3 ~map:String.uppercase_ascii ~into tr in
  Alcotest.(check int) "absorb counts what the limit drops" 1 dropped;
  Alcotest.(check (list string)) "absorb appends mapped events in order"
    [ "zero"; "ONE"; "TWO" ] (Trace.events into);
  Alcotest.(check (list string)) "absorb leaves the source alone" [ "one"; "two"; "three" ]
    (Trace.events tr)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "basics" `Quick test_time_basics;
          Alcotest.test_case "invalid arguments" `Quick test_time_invalid;
          Alcotest.test_case "ordering" `Quick test_time_order;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "FIFO tie-break" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "cancel after pop (regression)" `Quick
            test_queue_cancel_after_pop;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "cancel-heavy stress" `Quick test_queue_cancel_heavy_stress;
          Alcotest.test_case "cancelled timers leave at once" `Quick
            test_queue_cancelled_timers_leave;
          Alcotest.test_case "push_unit / pop_apply" `Quick
            test_queue_push_unit_pop_apply;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
          QCheck_alcotest.to_alcotest prop_queue_cancel_subset;
          QCheck_alcotest.to_alcotest prop_queue_matches_heap;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "FIFO and busy time" `Quick test_cpu_fifo_and_busy;
          Alcotest.test_case "idle gap" `Quick test_cpu_idle_gap;
          Alcotest.test_case "charge" `Quick test_cpu_charge;
        ] );
      ("trace", [ Alcotest.test_case "record and query" `Quick test_trace ]);
    ]
