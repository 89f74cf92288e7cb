(* Tests for the replica/group public API: admission and queuing, crash
   semantics, observers, latency records, quiescence, and the framework
   view. *)

open Repro_sim
open Repro_net
open Repro_core

let make ?(kind = Replica.Monolithic) ?(n = 3) () =
  Group.create ~kind ~params:(Params.default ~n) ()

let test_group_accessors () =
  let g = make ~n:5 () in
  Alcotest.(check int) "network size" 5 (Network.n (Group.network g));
  Alcotest.(check int) "params n" 5 (Group.params g).Params.n;
  Alcotest.(check int) "replica pid" 3 (Replica.me (Group.replica g 3));
  Alcotest.(check bool) "kind" true (Replica.kind (Group.replica g 0) = Replica.Monolithic)

let test_offers_and_admission () =
  let g = make () in
  let r = Group.replica g 0 in
  Alcotest.(check int) "nothing offered" 0 (Replica.offered r);
  for _ = 1 to 5 do
    Group.abcast g 0 ~size:100
  done;
  Alcotest.(check int) "offered counted" 5 (Replica.offered r);
  Alcotest.(check int) "window admits 2" 2 (Replica.admitted r);
  Alcotest.(check int) "3 queued" 3 (Replica.queued_offers r);
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  Alcotest.(check int) "all admitted in the end" 5 (Replica.admitted r);
  Alcotest.(check int) "queue empty" 0 (Replica.queued_offers r);
  Alcotest.(check int) "all delivered" 5 (Replica.delivered_count r)

let test_crash_discards_offers () =
  let g = make () in
  for _ = 1 to 5 do
    Group.abcast g 2 ~size:100
  done;
  Group.crash g 2;
  Alcotest.(check int) "queued offers discarded" 0
    (Replica.queued_offers (Group.replica g 2));
  (* Offers after the crash are ignored entirely. *)
  Group.abcast g 2 ~size:100;
  Alcotest.(check int) "no post-crash offers" 5 (Replica.offered (Group.replica g 2))

let test_run_until_quiescent_limit () =
  let g =
    Group.create ~kind:Replica.Monolithic ~params:(Params.default ~n:3)
      ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config) ()
  in
  (* Heartbeats never stop: the limited run must report non-quiescence. *)
  Group.abcast g 0 ~size:100;
  let quiescent = Group.run_until_quiescent g ~limit:(Time.span_ms 500) () in
  Alcotest.(check bool) "heartbeats keep the engine busy" false quiescent;
  Alcotest.(check int) "but delivery happened" 1
    (Replica.delivered_count (Group.replica g 0))

(* A bounded quiescence run must stop only when nothing at all is in
   flight: it has to reach the same point as the unbounded run, for every
   stack — event count, clock and deliveries alike. *)
let test_bounded_quiescence_matches_unbounded () =
  List.iter
    (fun (name, kind) ->
      let run limit =
        let g = make ~kind () in
        Group.abcast g 0 ~size:100;
        let quiescent = Group.run_until_quiescent g ?limit () in
        let engine = Group.engine g in
        ( quiescent,
          Engine.events_executed engine,
          Time.to_ns (Engine.now engine),
          Array.to_list (Group.delivered_counts g) )
      in
      let q1, ev1, ns1, d1 = run (Some (Time.span_s 10)) in
      let q0, ev0, ns0, d0 = run None in
      Alcotest.(check bool) (name ^ ": both quiescent") q0 q1;
      Alcotest.(check int) (name ^ ": events_executed") ev0 ev1;
      Alcotest.(check int) (name ^ ": clock (ns)") ns0 ns1;
      Alcotest.(check (list int)) (name ^ ": delivered counts") d0 d1;
      Alcotest.(check (list int)) (name ^ ": delivered everywhere") [ 1; 1; 1 ] d1)
    [
      ("modular", Replica.Modular);
      ("indirect", Replica.Indirect);
      ("monolithic", Replica.Monolithic);
    ]

let test_latency_records_complete () =
  let g = make () in
  for i = 0 to 9 do
    Group.abcast g (i mod 3) ~size:100
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  let lats = Group.latencies g in
  Alcotest.(check int) "one record per message" 10 (List.length lats);
  (* Records are sorted by first delivery and strictly positive. *)
  let times = List.map (fun (r : Group.latency_record) -> Time.to_ns r.first_delivery) lats in
  Alcotest.(check bool) "sorted by first delivery" true
    (List.sort compare times = times);
  List.iter
    (fun (r : Group.latency_record) ->
      Alcotest.(check bool) "positive latency" true Time.(r.first_delivery > r.abcast_at))
    lats

let test_multiple_observers () =
  let g = make () in
  let a = ref 0 and b = ref 0 in
  Group.on_delivery g (fun _ _ -> incr a);
  Group.on_delivery g (fun _ _ -> incr b);
  Group.abcast g 0 ~size:100;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  Alcotest.(check int) "first observer saw 3 deliveries" 3 !a;
  Alcotest.(check int) "second observer too" 3 !b

let test_record_deliveries_off () =
  let g =
    Group.create ~kind:Replica.Monolithic ~params:(Params.default ~n:3)
      ~record_deliveries:false ()
  in
  Group.abcast g 0 ~size:100;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  Alcotest.(check int) "counting still works" 1 (Replica.delivered_count (Group.replica g 0));
  Alcotest.(check (list (pair int int))) "log empty" []
    (List.map (fun id -> (id.App_msg.origin, id.App_msg.seq)) (Group.deliveries g 0))

let test_mean_batch_size () =
  let g = make () in
  for i = 0 to 11 do
    Group.abcast g (i mod 3) ~size:100
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  let m = Group.mean_batch_size g in
  let instances = Replica.instances_decided (Group.replica g 0) in
  Alcotest.(check (float 1e-9)) "M = delivered / instances"
    (12.0 /. float_of_int instances)
    m

let test_crash_stops_delivery_at_crashed () =
  let g = make () in
  Group.abcast g 0 ~size:100;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  Group.crash g 2;
  Group.abcast g 0 ~size:100;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  Alcotest.(check int) "p1 delivered both" 2 (Replica.delivered_count (Group.replica g 0));
  Alcotest.(check int) "crashed p3 stuck at first" 1
    (Replica.delivered_count (Group.replica g 2))

let test_stack_view () =
  let g = make ~kind:Replica.Modular () in
  let stack = Replica.stack (Group.replica g 0) in
  Alcotest.(check int) "three modules mounted" 3
    (List.length (Repro_framework.Stack.modules stack));
  (* Composition is printable. *)
  Alcotest.(check bool) "pp non-empty" true
    (String.length (Fmt.str "%a" Repro_framework.Stack.pp stack) > 0)

let test_run_repeated_combines () =
  let open Repro_workload in
  let c =
    Experiment.config ~kind:Replica.Monolithic ~n:3 ~offered_load:500.0 ~size:1024
      ~warmup_s:0.3 ~measure_s:1.0 ()
  in
  let single = Experiment.run c in
  let repeated = Experiment.run_repeated ~repeats:3 c in
  Alcotest.(check bool) "pooled sample is larger" true
    (repeated.Experiment.early_latency_ms.Stats.count
    > single.Experiment.early_latency_ms.Stats.count);
  Alcotest.(check bool) "means agree broadly" true
    (abs_float
       (repeated.Experiment.early_latency_ms.Stats.mean
       -. single.Experiment.early_latency_ms.Stats.mean)
    < 1.0);
  Alcotest.check_raises "repeats >= 1"
    (Invalid_argument "Experiment.run_repeated: repeats must be >= 1") (fun () ->
      ignore (Experiment.run_repeated ~repeats:0 c))

let () =
  Alcotest.run "group"
    [
      ( "api",
        [
          Alcotest.test_case "accessors" `Quick test_group_accessors;
          Alcotest.test_case "offers and admission" `Quick test_offers_and_admission;
          Alcotest.test_case "crash discards offers" `Quick test_crash_discards_offers;
          Alcotest.test_case "quiescence limit" `Quick test_run_until_quiescent_limit;
          Alcotest.test_case "bounded quiescence matches unbounded" `Quick
            test_bounded_quiescence_matches_unbounded;
          Alcotest.test_case "latency records" `Quick test_latency_records_complete;
          Alcotest.test_case "multiple observers" `Quick test_multiple_observers;
          Alcotest.test_case "recording off" `Quick test_record_deliveries_off;
          Alcotest.test_case "mean batch size" `Quick test_mean_batch_size;
          Alcotest.test_case "crashed process stops delivering" `Quick
            test_crash_stops_delivery_at_crashed;
          Alcotest.test_case "framework view" `Quick test_stack_view;
        ] );
      ( "experiment",
        [ Alcotest.test_case "run_repeated pools samples" `Quick test_run_repeated_combines ]
      );
    ]
