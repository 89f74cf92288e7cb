(* Tests for atomic broadcast by indirect consensus (related work [12]):
   the abcast properties, the byte saving it exists for, and the
   payload-recovery path. *)

open Repro_sim
open Repro_net
open Repro_fd
open Repro_core

let make ?(n = 3) ?params ?fd_mode () =
  let params = match params with Some p -> p | None -> Params.default ~n in
  Group.create ~kind:Replica.Indirect ~params ?fd_mode ()

let run_quiet g = ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ())

let check_total_order g ~n =
  let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
  let first = List.hd logs in
  List.iter
    (fun log -> Alcotest.(check bool) "same sequence everywhere" true (log = first))
    (List.tl logs);
  Alcotest.(check int) "no duplicates" (List.length first)
    (List.length (List.sort_uniq compare first))

let test_basic_total_order () =
  let g = make () in
  for i = 0 to 29 do
    Group.abcast g (i mod 3) ~size:512
  done;
  run_quiet g;
  check_total_order g ~n:3;
  Alcotest.(check int) "all delivered" 30 (Replica.delivered_count (Group.replica g 0))

let test_symmetric_n7 () =
  let g = make ~n:7 () in
  for i = 0 to 69 do
    Group.abcast g (i mod 7) ~size:1024
  done;
  run_quiet g;
  check_total_order g ~n:7;
  Alcotest.(check int) "all delivered" 70 (Replica.delivered_count (Group.replica g 0))

let test_payloads_travel_once () =
  (* The point of [12]: proposals carry identifiers, so total bytes fall
     well below the modular stack's double payload transfer — close to
     (n-1)*M*l, even below the monolithic stack's (n-1)(1+1/n)Ml. *)
  let measure kind =
    let g = Group.create ~kind ~params:(Params.default ~n:3) ~record_deliveries:false () in
    for i = 0 to 59 do
      Group.abcast g (i mod 3) ~size:4096
    done;
    ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ());
    Alcotest.(check int) "all delivered" 60 (Replica.delivered_count (Group.replica g 0));
    (Net_stats.snapshot (Group.stats g)).Net_stats.payload_bytes
  in
  let indirect = measure Replica.Indirect in
  let modular = measure Replica.Modular in
  let mono = measure Replica.Monolithic in
  Alcotest.(check bool)
    (Printf.sprintf "indirect (%d) well below modular (%d)" indirect modular)
    true
    (float_of_int indirect < 0.7 *. float_of_int modular);
  Alcotest.(check bool)
    (Printf.sprintf "indirect (%d) at or below monolithic (%d)" indirect mono)
    true
    (indirect < mono + (mono / 10))

let test_message_count_stays_modular () =
  (* Indirect consensus keeps the modular message pattern — it saves
     bytes, not messages (diffusion + proposal + acks + decision rbcast). *)
  let g = Group.create ~kind:Replica.Indirect ~params:(Params.default ~n:3) () in
  Group.abcast g 0 ~size:1024;
  run_quiet g;
  let msgs = (Net_stats.snapshot (Group.stats g)).Net_stats.messages in
  (* M=1: diffusion 2 + proposal 2 + acks 2 + decision rbcast 4 = 10. *)
  Alcotest.(check int) "modular-shaped message count" 10 msgs

let test_payload_recovery_after_diffuser_crash () =
  (* p1 (coordinator) abcasts m but its diffusion reaches nobody: cut both
     outgoing links for the diffusion, then heal. p1 still proposes m's id
     (it holds the payload), the decision tag reaches p2/p3, which now hold
     an ordered identifier with no payload — the Payload_request path must
     fetch it from p1. *)
  let g = make ~fd_mode:(`Heartbeat Heartbeat_fd.default_config) () in
  let net = Group.network g in
  Network.cut net ~src:0 ~dst:1;
  Network.cut net ~src:0 ~dst:2;
  Group.abcast g 0 ~size:512;
  (* Let the diffusion be lost, then heal so consensus can run. *)
  Group.run_for g (Time.span_ms 2);
  Network.heal net ~src:0 ~dst:1;
  Network.heal net ~src:0 ~dst:2;
  Group.run_for g (Time.span_s 2);
  let expect = { App_msg.origin = 0; seq = 0 } in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d delivered after payload fetch" (p + 1))
        true
        (List.mem expect (Group.deliveries g p)))
    [ 0; 1; 2 ];
  (* The recovery must actually have used the request path. *)
  match List.assoc_opt "payload-push" (Net_stats.by_kind (Group.stats g)) with
  | Some c -> Alcotest.(check bool) "payloads were pushed" true (c >= 2)
  | None -> Alcotest.fail "expected payload-push traffic"

let test_coordinator_crash () =
  let g = make ~fd_mode:(`Heartbeat Heartbeat_fd.default_config) () in
  Group.abcast g 1 ~size:256;
  Group.run_for g (Time.span_ms 50);
  Group.crash g 0;
  Group.abcast g 1 ~size:256;
  Group.abcast g 2 ~size:256;
  Group.run_for g (Time.span_s 5);
  let l1 = Group.deliveries g 1 and l2 = Group.deliveries g 2 in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check bool) "progress after crash" true (List.length l1 >= 3)

let test_composition_view () =
  let g = make () in
  Alcotest.(check (list string)) "three modules, indirect abcast"
    [ "ABcast-I"; "Consensus"; "RBcast" ]
    (List.map
       (fun m -> m.Repro_framework.Stack.name)
       (Repro_framework.Stack.modules (Replica.stack (Group.replica g 0))))

(* The identity store, driven without a group: a decision naming a
   payload not yet held blocks delivery until the payload arrives, a
   first payload far past a row's initial 64 slots grows it over a gap,
   duplicates are ignored, requests are answered from held payloads
   only, and the snapshot's summary counts track each step. *)
let test_store_driven_directly () =
  let engine = Engine.create () in
  let proposals = ref [] and delivered = ref [] and pushed = ref [] in
  let a =
    Abcast_indirect.create ~engine ~params:(Params.default ~n:3) ~me:0
      ~diffuse:(fun _ -> ())
      ~send:(fun ~dst m -> pushed := (dst, m) :: !pushed)
      ~broadcast:(fun _ -> ())
      ~consensus:
        { Abcast_indirect.propose = (fun ~inst b -> proposals := (inst, b) :: !proposals) }
      ~on_adeliver:(fun m -> delivered := m :: !delivered)
      ()
  in
  let msg ?(size = 100) origin seq = App_msg.make ~origin ~seq ~size ~abcast_at:Time.zero in
  let id origin seq = { App_msg.origin; seq } in
  let ids_of b = List.map (fun m -> m.App_msg.id) (Batch.to_list b) in
  let decision l = Batch.of_list (List.map (fun (o, s) -> msg ~size:0 o s) l) in
  let counts step (known, pending, ordered) =
    let s = Abcast_indirect.snapshot a in
    Alcotest.(check (list int))
      (step ^ ": known, pending, ordered")
      [ known; pending; ordered ]
      (List.map (Snapshot.get_int s) [ "known_payloads"; "pending_ids"; "ordered_ids" ])
  in
  Abcast_indirect.on_diffuse a (msg 1 0);
  counts "diffused" (1, 1, 0);
  (match !proposals with
  | [ (0, b) ] -> Alcotest.(check bool) "proposes the held id" true (ids_of b = [ id 1 0 ])
  | _ -> Alcotest.fail "expected one proposal for instance 0");
  Abcast_indirect.on_decide a ~inst:0 (decision [ (2, 0) ]);
  Abcast_indirect.on_decide a ~inst:1 (decision [ (1, 0) ]);
  counts "decided ahead of the payload" (1, 0, 2);
  Alcotest.(check int) "missing payload blocks delivery" 0 (List.length !delivered);
  Abcast_indirect.on_payload_push a (msg ~size:300 2 70);
  counts "payload past the initial row" (2, 1, 2);
  Abcast_indirect.on_payload_push a (msg ~size:999 2 70);
  counts "duplicate push ignored" (2, 1, 2);
  Abcast_indirect.on_payload_request a ~src:2 [ id 2 0; id 2 70; id 0 5; id 1 0; id 2 69 ];
  Alcotest.(check (list (pair int int)))
    "answers held ids only, in request order, with the first payload"
    [ (2, 300); (2, 100) ]
    (List.rev_map
       (function
         | dst, Msg.Payload_push m -> (dst, m.App_msg.size)
         | _ -> Alcotest.fail "expected a payload push")
       !pushed);
  Abcast_indirect.on_diffuse a (msg 2 0);
  Alcotest.(check (list (pair int int)))
    "the payload's arrival unblocks delivery in instance order"
    [ (2, 0); (1, 0) ]
    (List.rev_map (fun m -> (m.App_msg.id.App_msg.origin, m.App_msg.id.App_msg.seq)) !delivered);
  Alcotest.(check bool) "the held payload is delivered, not the identifier" true
    (List.for_all (fun m -> m.App_msg.size = 100) !delivered);
  Alcotest.(check int) "next instance" 2 (Abcast_indirect.next_instance a);
  counts "delivered" (3, 1, 0);
  (match !proposals with
  | (2, b) :: _ ->
    Alcotest.(check bool) "proposes the id past the gap" true (ids_of b = [ id 2 70 ])
  | _ -> Alcotest.fail "expected a proposal for instance 2");
  (* A payload arriving below where the last proposal's walk stopped is
     still proposed. *)
  Abcast_indirect.on_decide a ~inst:2 (decision [ (2, 70) ]);
  Abcast_indirect.on_payload_push a (msg 2 5);
  counts "late payload inside the gap" (4, 1, 0);
  (match !proposals with
  | (3, b) :: _ ->
    Alcotest.(check bool) "proposes the late id" true (ids_of b = [ id 2 5 ])
  | _ -> Alcotest.fail "expected a proposal for instance 3");
  (* Growing a row keeps the payloads it already held. *)
  Abcast_indirect.on_payload_push a (msg 1 200);
  counts "second row grown" (5, 2, 0);
  pushed := [];
  Abcast_indirect.on_payload_request a ~src:1 [ id 1 0 ];
  Alcotest.(check (list int)) "held payload survives the growth" [ 100 ]
    (List.map
       (function
         | _, Msg.Payload_push m -> m.App_msg.size
         | _ -> Alcotest.fail "expected a payload push")
       !pushed)

let prop_total_order =
  QCheck.Test.make ~name:"indirect total order for random workloads" ~count:40
    QCheck.(triple (int_range 1 60) (oneofl [ 3; 5 ]) (int_bound 999))
    (fun (msgs, n, seed) ->
      let params = { (Params.default ~n) with Params.seed } in
      let g = Group.create ~kind:Replica.Indirect ~params () in
      let rng = Rng.create ~seed in
      for _ = 1 to msgs do
        Group.abcast g (Rng.int rng n) ~size:(1 + Rng.int rng 4096)
      done;
      ignore (Group.run_until_quiescent g ~limit:(Time.span_s 120) ());
      let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
      let first = List.hd logs in
      List.length first = msgs
      && List.for_all (( = ) first) logs
      && List.length (List.sort_uniq compare first) = msgs)

let () =
  Alcotest.run "abcast-indirect"
    [
      ( "good-runs",
        [
          Alcotest.test_case "total order" `Quick test_basic_total_order;
          Alcotest.test_case "symmetric n=7" `Quick test_symmetric_n7;
          Alcotest.test_case "payloads travel once (vs modular)" `Quick
            test_payloads_travel_once;
          Alcotest.test_case "message count stays modular" `Quick
            test_message_count_stays_modular;
          Alcotest.test_case "composition view" `Quick test_composition_view;
          QCheck_alcotest.to_alcotest prop_total_order;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "payload fetch after lost diffusion" `Quick
            test_payload_recovery_after_diffuser_crash;
          Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash;
        ] );
      ("store", [ Alcotest.test_case "dense store, driven directly" `Quick test_store_driven_directly ]);
    ]
