(* Unit tests for the core data types: application messages, batches, the
   wire-size model, parameters, flow control, and order checking through
   the fault layer's monitor. *)

open Repro_sim
open Repro_core

let mk ?(size = 100) origin seq = App_msg.make ~origin ~seq ~size ~abcast_at:Time.zero

(* ---- App_msg ---- *)

let test_app_msg_identity () =
  let a = mk 0 1 and b = mk 0 2 and c = mk 1 0 in
  Alcotest.(check int) "same id equal" 0 (App_msg.compare_id a.App_msg.id a.App_msg.id);
  Alcotest.(check bool) "seq orders within origin" true
    (App_msg.compare_id a.App_msg.id b.App_msg.id < 0);
  Alcotest.(check bool) "origin dominates seq" true
    (App_msg.compare_id b.App_msg.id c.App_msg.id < 0);
  Alcotest.(check bool) "equal_id" true (App_msg.equal_id a.App_msg.id a.App_msg.id);
  Alcotest.(check string) "pp" "p1#1(100B)" (Fmt.str "%a" App_msg.pp a)

let test_id_set () =
  let set =
    App_msg.Id_set.of_list [ (mk 0 0).App_msg.id; (mk 1 0).App_msg.id; (mk 0 0).App_msg.id ]
  in
  Alcotest.(check int) "dedup" 2 (App_msg.Id_set.cardinal set)

(* ---- Batch ---- *)

let test_batch_canonical () =
  let b1 = Batch.of_list [ mk 2 0; mk 0 0; mk 1 0 ] in
  let b2 = Batch.of_list [ mk 0 0; mk 1 0; mk 2 0; mk 0 0 ] in
  Alcotest.(check bool) "order-insensitive and deduped" true (Batch.equal b1 b2);
  Alcotest.(check int) "size" 3 (Batch.size b1);
  Alcotest.(check (list int)) "to_list sorted by origin"
    [ 0; 1; 2 ]
    (List.map (fun m -> m.App_msg.id.App_msg.origin) (Batch.to_list b1))

let test_batch_operations () =
  let b = Batch.of_list [ mk ~size:10 0 0; mk ~size:20 1 0 ] in
  Alcotest.(check int) "payload_bytes" 30 (Batch.payload_bytes b);
  Alcotest.(check bool) "mem" true (Batch.mem b (mk 0 0).App_msg.id);
  Alcotest.(check bool) "not mem" false (Batch.mem b (mk 2 0).App_msg.id);
  let u = Batch.union b (Batch.of_list [ mk 1 0; mk 2 0 ]) in
  Alcotest.(check int) "union dedups" 3 (Batch.size u);
  let removed = Batch.remove_ids u (Batch.ids b) in
  Alcotest.(check int) "remove_ids" 1 (Batch.size removed);
  Alcotest.(check bool) "empty" true (Batch.is_empty Batch.empty);
  Alcotest.(check int) "ids cardinality" 3 (App_msg.Id_set.cardinal (Batch.ids u))

let prop_batch_union =
  QCheck.Test.make ~name:"batch union is commutative, associative, idempotent" ~count:200
    QCheck.(pair (list (pair (int_bound 4) (int_bound 20))) (list (pair (int_bound 4) (int_bound 20))))
    (fun (xs, ys) ->
      let batch_of l = Batch.of_list (List.map (fun (o, s) -> mk o s) l) in
      let a = batch_of xs and b = batch_of ys in
      Batch.equal (Batch.union a b) (Batch.union b a)
      && Batch.equal (Batch.union a (Batch.union a b)) (Batch.union a b)
      && Batch.equal (Batch.union a a) a)

let prop_batch_sorted =
  QCheck.Test.make ~name:"batch to_list is always identity-sorted" ~count:200
    QCheck.(list (pair (int_bound 6) (int_bound 50)))
    (fun l ->
      let b =
        Batch.of_list (List.map (fun (o, s) -> mk ~size:((7 * o) + s) o s) l)
      in
      let out = Batch.to_list b in
      let visited = ref [] in
      Batch.iter (fun m -> visited := m :: !visited) b;
      (* A carried batch costs what the wire model's sum over [to_list]
         charged: 12 identity bytes plus the payload, per message. *)
      let listed = List.fold_left (fun acc m -> acc + 12 + m.App_msg.size) 0 out in
      let carried carry = Msg.payload_bytes (carry b) - Msg.payload_bytes (carry Batch.empty) in
      List.sort App_msg.compare out = out
      && List.rev !visited = out
      && List.for_all
           (fun carry -> carried carry = listed)
           [
             (fun value -> Msg.Propose { inst = 0; round = 1; value });
             (fun value -> Msg.Estimate { inst = 0; round = 1; value; ts = 0 });
             (fun value -> Msg.Decision_full { inst = 0; value });
           ])

(* ---- Msg size model ---- *)

let test_msg_sizes () =
  let small = Batch.of_list [ mk ~size:100 0 0 ] in
  let big = Batch.of_list [ mk ~size:100 0 0; mk ~size:5000 1 0 ] in
  let size msg = Msg.payload_bytes msg in
  Alcotest.(check bool) "ack is tiny" true (size (Msg.Ack { inst = 0; round = 1 }) < 32);
  Alcotest.(check bool) "nack is tiny" true (size (Msg.Nack { inst = 0; round = 1 }) < 32);
  Alcotest.(check bool) "tag decision is tiny" true
    (size
       (Msg.Decision_tag
          { meta = { Msg.rb_origin = 0; rb_seq = 0 }; inst = 0; round = 1; value = None })
    < 64);
  Alcotest.(check bool) "proposal grows with batch" true
    (size (Msg.Propose { inst = 0; round = 1; value = big })
    > size (Msg.Propose { inst = 0; round = 1; value = small }));
  Alcotest.(check bool) "diffuse carries the payload" true
    (size (Msg.Diffuse (mk ~size:4096 0 0)) >= 4096);
  Alcotest.(check bool) "piggybacked ack carries payloads" true
    (size (Msg.Ack_diff { inst = 0; round = 1; piggyback = [ mk ~size:2048 1 0 ] })
    >= 2048);
  (* A combined proposal+decision costs barely more than the proposal:
     that is the entire point of §4.1. *)
  let prop_alone =
    size (Msg.Prop_dec { inst = 1; round = 1; proposal = big; decided = None })
  in
  let prop_with_decision =
    size (Msg.Prop_dec { inst = 1; round = 1; proposal = big; decided = Some (0, 1) })
  in
  Alcotest.(check bool) "piggybacked decision is almost free" true
    (prop_with_decision - prop_alone < 16)

(* One message of every constructor. *)
let every_msg =
  [
    Msg.Heartbeat;
    Msg.Diffuse (mk 0 0);
    Msg.Estimate { inst = 0; round = 1; value = Batch.empty; ts = 0 };
    Msg.Propose { inst = 0; round = 1; value = Batch.empty };
    Msg.Ack { inst = 0; round = 1 };
    Msg.Nack { inst = 0; round = 1 };
    Msg.Decision_tag
      { meta = { Msg.rb_origin = 0; rb_seq = 0 }; inst = 0; round = 1; value = None };
    Msg.New_round { inst = 0; round = 2 };
    Msg.Prop_dec { inst = 0; round = 1; proposal = Batch.empty; decided = None };
    Msg.Ack_diff { inst = 0; round = 1; piggyback = [] };
    Msg.Mono_estimate
      { inst = 0; round = 2; value = Batch.empty; ts = 0; piggyback = [] };
    Msg.Mono_decision_tag { inst = 0; round = 1 };
    Msg.To_coord (mk 0 0);
    Msg.Payload_request { ids = [] };
    Msg.Payload_push (mk 0 0);
    Msg.Decision_request { inst = 0 };
    Msg.Decision_full { inst = 0; value = Batch.empty };
  ]

let test_msg_kinds_distinct () =
  let kinds = List.map Msg.kind every_msg in
  Alcotest.(check int) "all kinds distinct" (List.length kinds)
    (List.length (List.sort_uniq compare kinds))

(* The network counts a copy by [kind_index] and names it by [kind]; the
   two must agree, and the index must cover the table exactly. *)
let test_kind_index_agrees () =
  let slots = List.map Msg.kind_index every_msg in
  Alcotest.(check (list int)) "one slot per constructor"
    (List.init (Array.length Msg.kind_names) Fun.id)
    (List.sort compare slots);
  List.iter
    (fun m ->
      Alcotest.(check string) "msg name at its slot" (Msg.kind m)
        Msg.kind_names.(Msg.kind_index m);
      List.iter
        (fun w ->
          Alcotest.(check string) "wire name at its slot" (Wire_msg.kind w)
            Wire_msg.kind_names.(Wire_msg.kind_index w);
          Alcotest.(check int) "wire keeps the msg slot" (Msg.kind_index m)
            (Wire_msg.kind_index w);
          Alcotest.(check int) "tampered has no slot" (-1)
            (Wire_msg.kind_index (Wire_msg.Tampered w));
          Alcotest.(check string) "tampered name" ("tampered-" ^ Msg.kind m)
            (Wire_msg.kind (Wire_msg.Tampered w)))
        [ Wire_msg.Plain m; Wire_msg.Frame (Repro_net.Rchannel.Data { seq = 0; payload = m }) ])
    every_msg;
  let ack = Wire_msg.Frame (Repro_net.Rchannel.Ack { cumulative = 0 }) in
  Alcotest.(check int) "channel-ack is last" (Array.length Wire_msg.kind_names - 1)
    (Wire_msg.kind_index ack);
  Alcotest.(check string) "channel-ack name" "channel-ack"
    Wire_msg.kind_names.(Wire_msg.kind_index ack)

let test_msg_pp_smoke () =
  (* The printers must not raise on any constructor. *)
  List.iter
    (fun msg -> ignore (Fmt.str "%a" Msg.pp msg))
    [
      Msg.Heartbeat;
      Msg.Diffuse (mk 0 0);
      Msg.Prop_dec
        {
          inst = 3;
          round = 1;
          proposal = Batch.of_list [ mk 0 0 ];
          decided = Some (2, 1);
        };
      Msg.Mono_estimate
        { inst = 0; round = 2; value = Batch.empty; ts = 1; piggyback = [ mk 1 4 ] };
    ]

(* ---- Params ---- *)

let test_params_coordinator_rotation () =
  let p = Params.default ~n:3 in
  Alcotest.(check int) "round 1 -> p1" 0 (Params.coordinator p ~round:1);
  Alcotest.(check int) "round 2 -> p2" 1 (Params.coordinator p ~round:2);
  Alcotest.(check int) "round 3 -> p3" 2 (Params.coordinator p ~round:3);
  Alcotest.(check int) "round 4 wraps to p1" 0 (Params.coordinator p ~round:4);
  Alcotest.check_raises "round 0 invalid"
    (Invalid_argument "Params.coordinator: rounds start at 1") (fun () ->
      ignore (Params.coordinator p ~round:0))

let test_params_majority () =
  Alcotest.(check int) "n=3" 2 (Params.majority (Params.default ~n:3));
  Alcotest.(check int) "n=4" 3 (Params.majority (Params.default ~n:4));
  Alcotest.(check int) "n=7" 4 (Params.majority (Params.default ~n:7))

(* ---- Flow control ---- *)

let test_flow_control () =
  let f = Flow_control.create ~window:2 in
  Alcotest.(check bool) "room initially" true (Flow_control.has_room f);
  Flow_control.acquire f;
  Flow_control.acquire f;
  Alcotest.(check bool) "full" false (Flow_control.has_room f);
  Alcotest.(check int) "in flight" 2 (Flow_control.in_flight f);
  Alcotest.check_raises "over-acquire rejected"
    (Invalid_argument "Flow_control.acquire: window full") (fun () ->
      Flow_control.acquire f);
  let drained = ref 0 in
  Flow_control.set_on_space f (fun () -> incr drained);
  Flow_control.release f;
  Alcotest.(check int) "drain callback ran" 1 !drained;
  Alcotest.(check bool) "room again" true (Flow_control.has_room f);
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Flow_control.create: window must be >= 1") (fun () ->
      ignore (Flow_control.create ~window:0))

(* ---- Order checking: the fault layer's monitor ---- *)

module Monitor = Repro_fault.Monitor

let id origin seq = { App_msg.origin; seq }

let test_checker_accepts_total_order () =
  let m = Monitor.create ~n:3 () in
  List.iter
    (fun pid ->
      Monitor.observe m pid (id 0 0);
      Monitor.observe m pid (id 1 0))
    [ 0; 1; 2 ];
  Alcotest.(check (list string)) "no violations" []
    (List.map (Fmt.str "%a" Monitor.pp_violation) (Monitor.violations m));
  Alcotest.(check (list int)) "every process delivered both" [ 2; 2; 2 ]
    (List.map (Monitor.delivered_count m) [ 0; 1; 2 ])

let test_checker_attached_to_group () =
  let params = Params.default ~n:3 in
  let g = Group.create ~kind:Replica.Monolithic ~params () in
  let m = Monitor.create ~n:3 () in
  Monitor.attach m g;
  for i = 0 to 19 do
    Group.abcast g (i mod 3) ~size:128
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 30) ());
  Monitor.check_final m ~correct:[ 0; 1; 2 ] ~min_delivered:20 ();
  Alcotest.(check (list string)) "no violations in a good run" []
    (List.map (Fmt.str "%a" Monitor.pp_violation) (Monitor.violations m));
  Alcotest.(check (list int)) "delivered everywhere" [ 20; 20; 20 ]
    (List.map (Monitor.delivered_count m) [ 0; 1; 2 ])

let () =
  Alcotest.run "core-types"
    [
      ( "app-msg",
        [
          Alcotest.test_case "identity order" `Quick test_app_msg_identity;
          Alcotest.test_case "id sets" `Quick test_id_set;
        ] );
      ( "batch",
        [
          Alcotest.test_case "canonical form" `Quick test_batch_canonical;
          Alcotest.test_case "operations" `Quick test_batch_operations;
          QCheck_alcotest.to_alcotest prop_batch_union;
          QCheck_alcotest.to_alcotest prop_batch_sorted;
        ] );
      ( "msg",
        [
          Alcotest.test_case "size model" `Quick test_msg_sizes;
          Alcotest.test_case "kinds distinct" `Quick test_msg_kinds_distinct;
          Alcotest.test_case "kind index agrees" `Quick test_kind_index_agrees;
          Alcotest.test_case "printers total" `Quick test_msg_pp_smoke;
        ] );
      ( "params",
        [
          Alcotest.test_case "coordinator rotation" `Quick test_params_coordinator_rotation;
          Alcotest.test_case "majority" `Quick test_params_majority;
        ] );
      ("flow-control", [ Alcotest.test_case "window" `Quick test_flow_control ]);
      ( "order-checker",
        [
          Alcotest.test_case "accepts a total order" `Quick test_checker_accepts_total_order;
          Alcotest.test_case "attached to a group" `Quick test_checker_attached_to_group;
        ] );
    ]
