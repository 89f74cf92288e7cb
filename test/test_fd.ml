(* Tests for failure detectors: the oracle used in protocol tests and the
   heartbeat-based eventually-perfect detector. *)

open Repro_sim
open Repro_net
open Repro_fd

(* ---- Oracle ---- *)

let test_oracle_basics () =
  let o = Oracle_fd.create () in
  let fd = Oracle_fd.fd o in
  Alcotest.(check bool) "initially trusts" false (Fd.is_suspected fd 1);
  let events = ref [] in
  Fd.on_suspect fd (fun p -> events := p :: !events);
  Oracle_fd.suspect o 1;
  Oracle_fd.suspect o 1;
  (* idempotent *)
  Alcotest.(check bool) "suspected" true (Fd.is_suspected fd 1);
  Alcotest.(check (list int)) "edge notification fired once" [ 1 ] !events;
  Oracle_fd.restore o 1;
  Alcotest.(check bool) "restored" false (Fd.is_suspected fd 1);
  Alcotest.(check (list int)) "suspects list" [] (Oracle_fd.suspects o)

let test_never_suspects () =
  Alcotest.(check bool) "trusts everyone" false (Fd.is_suspected Fd.never_suspects 3)

(* ---- Heartbeat detector over the simulated network ---- *)

type hb_world = {
  engine : Engine.t;
  net : unit Network.t;
  detectors : Heartbeat_fd.t array;
}

let make_world ?(n = 3) ?(config = Heartbeat_fd.default_config) () =
  let engine = Engine.create () in
  let net = Network.create engine ~n ~payload_bytes:(fun () -> 8) () in
  let detectors =
    Array.init n (fun me ->
        Heartbeat_fd.create engine config ~n ~me ~send_heartbeat:(fun ~dst ->
            Network.send net ~src:me ~dst ()))
  in
  Array.iteri
    (fun me hb -> Network.register net me (fun ~src () -> Heartbeat_fd.on_heartbeat hb ~src))
    detectors;
  { engine; net; detectors }

let run_for w span = Engine.run_until w.engine (Time.add (Engine.now w.engine) span)

let test_heartbeat_no_false_suspicion () =
  let w = make_world () in
  run_for w (Time.span_s 2);
  Array.iteri
    (fun me hb ->
      Alcotest.(check (list int))
        (Printf.sprintf "p%d suspects nobody" (me + 1))
        [] (Heartbeat_fd.suspects hb))
    w.detectors

let test_heartbeat_detects_crash () =
  let w = make_world () in
  run_for w (Time.span_ms 200);
  Network.crash w.net 2;
  Heartbeat_fd.stop w.detectors.(2);
  run_for w (Time.span_s 1);
  Alcotest.(check (list int)) "p1 suspects p3" [ 2 ] (Heartbeat_fd.suspects w.detectors.(0));
  Alcotest.(check (list int)) "p2 suspects p3" [ 2 ] (Heartbeat_fd.suspects w.detectors.(1))

let test_heartbeat_suspicion_notification () =
  let w = make_world () in
  let notified = ref [] in
  Fd.on_suspect (Heartbeat_fd.fd w.detectors.(0)) (fun p -> notified := p :: !notified);
  run_for w (Time.span_ms 100);
  Network.crash w.net 1;
  Heartbeat_fd.stop w.detectors.(1);
  run_for w (Time.span_s 1);
  Alcotest.(check (list int)) "listener fired for p2" [ 1 ] !notified

let test_heartbeat_recovers_from_false_suspicion () =
  (* Cut the links from p2 to p1 long enough to trigger a suspicion, then
     heal: p1 must unsuspect p2 and raise its timeout (eventual accuracy). *)
  let w = make_world () in
  run_for w (Time.span_ms 100);
  Network.cut w.net ~src:1 ~dst:0;
  run_for w (Time.span_ms 200);
  Alcotest.(check (list int)) "p1 falsely suspects p2" [ 1 ]
    (Heartbeat_fd.suspects w.detectors.(0));
  Network.heal w.net ~src:1 ~dst:0;
  run_for w (Time.span_ms 200);
  Alcotest.(check (list int)) "suspicion retracted" []
    (Heartbeat_fd.suspects w.detectors.(0));
  (* And the detector must now be more patient: a silence of the original
     timeout must no longer trigger a suspicion. *)
  Network.cut w.net ~src:1 ~dst:0;
  run_for w (Time.span_ms 60);
  Alcotest.(check (list int)) "timeout increased after false suspicion" []
    (Heartbeat_fd.suspects w.detectors.(0));
  Network.heal w.net ~src:1 ~dst:0

let test_heartbeat_timeout_decays () =
  (* Regression for adaptive timeout decay: a false suspicion inflates the
     per-peer timeout (eventual accuracy), but a long healthy stretch must
     decay it back to the configured floor so a transient partition does not
     permanently slow crash detection. *)
  let w = make_world () in
  run_for w (Time.span_ms 100);
  let hb = w.detectors.(0) in
  let initial = Time.span_to_ns (Heartbeat_fd.current_timeout hb 1) in
  Alcotest.(check int) "starts at the configured timeout"
    (Time.span_to_ns Heartbeat_fd.default_config.initial_timeout)
    initial;
  (* Silence p2 long enough for a false suspicion, then heal. *)
  Network.cut w.net ~src:1 ~dst:0;
  run_for w (Time.span_ms 200);
  Network.heal w.net ~src:1 ~dst:0;
  run_for w (Time.span_ms 50);
  let grown = Time.span_to_ns (Heartbeat_fd.current_timeout hb 1) in
  Alcotest.(check bool)
    (Printf.sprintf "timeout grew after false suspicion (%d > %d)" grown initial)
    true (grown > initial);
  (* Healthy heartbeats every 10 ms, decaying 1 ms each: 2 s is ample to walk
     a 50 ms increment all the way back down, and the floor must hold. *)
  run_for w (Time.span_s 2);
  let decayed = Time.span_to_ns (Heartbeat_fd.current_timeout hb 1) in
  Alcotest.(check int) "decayed back to the floor, not below it" initial decayed;
  Alcotest.(check (list int)) "no suspicion while decaying" [] (Heartbeat_fd.suspects hb)

let test_heartbeat_stop_quiesces () =
  let w = make_world () in
  Array.iter Heartbeat_fd.stop w.detectors;
  (* With all detectors stopped, activity must die out. *)
  run_for w (Time.span_s 1);
  let before = Engine.pending w.engine in
  Alcotest.(check bool)
    (Printf.sprintf "no periodic events linger (pending=%d)" before)
    true (before = 0)

let () =
  Alcotest.run "fd"
    [
      ( "oracle",
        [
          Alcotest.test_case "scripted suspicion" `Quick test_oracle_basics;
          Alcotest.test_case "never_suspects" `Quick test_never_suspects;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "no false suspicion in good runs" `Quick
            test_heartbeat_no_false_suspicion;
          Alcotest.test_case "detects a crash (completeness)" `Quick
            test_heartbeat_detects_crash;
          Alcotest.test_case "edge notification" `Quick test_heartbeat_suspicion_notification;
          Alcotest.test_case "retracts false suspicion (accuracy)" `Quick
            test_heartbeat_recovers_from_false_suspicion;
          Alcotest.test_case "timeout decays after false suspicion" `Quick
            test_heartbeat_timeout_decays;
          Alcotest.test_case "stop quiesces" `Quick test_heartbeat_stop_quiesces;
        ] );
    ]
