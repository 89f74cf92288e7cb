(* Tests for the optimized Chandra-Toueg consensus (§3.2): agreement,
   validity, termination, good-run message pattern, coordinator crash and
   false-suspicion recovery. The harness wires n consensus modules over the
   simulated network with per-process oracle failure detectors, exactly as
   the modular replica does (minus the abcast layer). *)

open Repro_sim
open Repro_net
open Repro_fd
open Repro_core

type proc = {
  consensus : Consensus.t;
  oracle : Oracle_fd.t;
  mutable decided : (int * Batch.t) list;
}

type world = {
  engine : Engine.t;
  net : Msg.t Network.t;
  procs : proc array;
  params : Params.t;
}

let msg ~origin ~seq =
  App_msg.make ~origin ~seq ~size:100 ~abcast_at:Time.zero

let batch_of_pids pids =
  Batch.of_list (List.map (fun p -> msg ~origin:p ~seq:0) pids)

let make ?(n = 3) ?params () =
  let params = match params with Some p -> p | None -> Params.default ~n in
  let engine = Engine.create () in
  let net =
    Network.create engine ~kind_names:Msg.kind_names ~kind_index:Msg.kind_index
      ~kind_of:Msg.kind ~n ~payload_bytes:Msg.payload_bytes ()
  in
  let procs =
    Array.init n (fun me ->
        let oracle = Oracle_fd.create () in
        let send ~dst m = Network.send net ~src:me ~dst m in
        let broadcast m = Network.send_to_others net ~src:me m in
        let rec proc =
          lazy
            (let rbcast =
               Rbcast.create ~me ~n ~variant:params.Params.modular.Params.rbcast_variant
                 ~broadcast:(fun ~meta (inst, round, value) ->
                   broadcast (Msg.Decision_tag { meta; inst; round; value }))
                 ~deliver:(fun ~meta (inst, round, value) ->
                   Consensus.rb_deliver
                     (Lazy.force proc).consensus
                     ~proposer:meta.Msg.rb_origin ~inst ~round ~value)
                 ()
             in
             let consensus =
               Consensus.create ~engine ~params ~me ~fd:(Oracle_fd.fd oracle) ~send
                 ~broadcast
                 ~rbcast_decision:(fun ~inst ~round ~value ->
                   Rbcast.rbcast rbcast (inst, round, value))
                 ~on_decide:(fun ~inst value ->
                   let p = Lazy.force proc in
                   p.decided <- (inst, value) :: p.decided)
                 ()
             in
             Network.register net me (fun ~src m ->
                 match m with
                 | Msg.Decision_tag { meta; inst; round; value } ->
                   Rbcast.receive rbcast ~src ~meta (inst, round, value)
                 | _ -> Consensus.receive (Lazy.force proc).consensus ~src m);
             { consensus; oracle; decided = [] })
        in
        Lazy.force proc)
  in
  { engine; net; procs; params }

let decision_of w p inst = List.assoc_opt inst w.procs.(p).decided
let run w = Engine.run w.engine
let run_for w span = Engine.run_until w.engine (Time.add (Engine.now w.engine) span)

let check_agreement ?(correct = []) w inst =
  let correct =
    if correct = [] then Pid.all ~n:(Array.length w.procs) else correct
  in
  let decisions = List.filter_map (fun p -> decision_of w p inst) correct in
  Alcotest.(check int) "all correct processes decided" (List.length correct)
    (List.length decisions);
  match decisions with
  | [] -> Alcotest.fail "no decisions"
  | first :: rest ->
    List.iter
      (fun d -> Alcotest.(check bool) "agreement" true (Batch.equal first d))
      rest;
    first

(* ---- Good runs ---- *)

let test_basic_agreement () =
  let w = make () in
  Array.iteri
    (fun p proc ->
      Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run w;
  let d = check_agreement w 0 in
  (* Validity: round 1 has no estimate phase, so the decision is the
     coordinator p1's initial value. *)
  Alcotest.(check bool) "decision is p1's proposal" true
    (Batch.equal d (batch_of_pids [ 0 ]))

let test_single_proposer_coordinator () =
  let w = make () in
  Consensus.propose w.procs.(0).consensus ~inst:0 (batch_of_pids [ 0 ]);
  run w;
  ignore (check_agreement w 0)

let test_good_run_message_pattern () =
  let w = make () in
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run w;
  ignore (check_agreement w 0);
  let kinds = Net_stats.by_kind (Network.stats w.net) in
  (* §3.2 optimized pattern: proposal to n-1, n-1 acks (minus the
     coordinator's implicit one), decision tag via majority rbcast. *)
  Alcotest.(check (option int)) "proposals" (Some 2) (List.assoc_opt "propose" kinds);
  Alcotest.(check (option int)) "acks" (Some 2) (List.assoc_opt "ack" kinds);
  Alcotest.(check (option int)) "decision tags"
    (Some (Repro_analysis.Model.rbcast_messages ~n:3))
    (List.assoc_opt "decision-tag" kinds);
  Alcotest.(check (option int)) "no estimates in good runs" None
    (List.assoc_opt "estimate" kinds);
  Alcotest.(check (option int)) "no solicitations in good runs" None
    (List.assoc_opt "new-round" kinds)

let test_good_run_single_round () =
  let w = make ~n:7 () in
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run w;
  ignore (check_agreement w 0);
  for p = 0 to 6 do
    Alcotest.(check int)
      (Printf.sprintf "p%d stayed in round 1" (p + 1))
      1
      (Consensus.rounds_used w.procs.(p).consensus ~inst:0)
  done

let test_concurrent_instances () =
  let w = make () in
  for inst = 0 to 4 do
    Array.iteri
      (fun p proc -> Consensus.propose proc.consensus ~inst (batch_of_pids [ p ]))
      w.procs
  done;
  run w;
  for inst = 0 to 4 do
    ignore (check_agreement w inst)
  done

let test_decision_api () =
  let w = make () in
  Alcotest.(check bool) "unknown instance" true
    (Consensus.decision w.procs.(0).consensus ~inst:9 = None);
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run w;
  Alcotest.(check bool) "decision queryable" true
    (Consensus.decision w.procs.(1).consensus ~inst:0 <> None)

(* ---- Crash runs ---- *)

let suspect_everywhere w dead =
  Array.iteri (fun p proc -> if p <> dead then Oracle_fd.suspect proc.oracle dead) w.procs

let test_coordinator_crash_before_propose () =
  let w = make () in
  Network.crash w.net 0;
  Consensus.propose w.procs.(1).consensus ~inst:0 (batch_of_pids [ 1 ]);
  Consensus.propose w.procs.(2).consensus ~inst:0 (batch_of_pids [ 2 ]);
  run_for w (Time.span_ms 100);
  suspect_everywhere w 0;
  run_for w (Time.span_s 2);
  let d = check_agreement ~correct:[ 1; 2 ] w 0 in
  (* Validity: the decision must be one of the survivors' proposals. *)
  Alcotest.(check bool) "decision proposed by a survivor" true
    (Batch.equal d (batch_of_pids [ 1 ]) || Batch.equal d (batch_of_pids [ 2 ]));
  Alcotest.(check bool) "rounds advanced past the dead coordinator" true
    (Consensus.rounds_used w.procs.(1).consensus ~inst:0 >= 2)

let test_coordinator_crash_mid_broadcast () =
  (* p1 proposes but reaches only p2 before crashing; after suspicion the
     instance must still terminate with agreement among survivors. *)
  let w = make () in
  Network.crash_after_sends w.net 0 1;
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_ms 100);
  suspect_everywhere w 0;
  run_for w (Time.span_s 2);
  ignore (check_agreement ~correct:[ 1; 2 ] w 0)

let test_crash_after_decision_sent_partially () =
  (* The coordinator decides and crashes while reliably broadcasting the
     DECISION tag: rbcast relaying (or recovery rounds) must propagate the
     decision, and the locked value must survive. *)
  let w = make ~n:5 () in
  (* Let the instance complete normally except p1 dies after 6 sends:
     4 proposals + 2 decision tag copies. *)
  Network.crash_after_sends w.net 0 6;
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_ms 200);
  suspect_everywhere w 0;
  run_for w (Time.span_s 3);
  let d = check_agreement ~correct:[ 1; 2; 3; 4 ] w 0 in
  Alcotest.(check bool) "locked value preserved (p1's proposal)" true
    (Batch.equal d (batch_of_pids [ 0 ]))

let test_two_coordinator_crashes () =
  let w = make ~n:7 () in
  Network.crash w.net 0;
  Network.crash w.net 1;
  for p = 2 to 6 do
    Consensus.propose w.procs.(p).consensus ~inst:0 (batch_of_pids [ p ])
  done;
  run_for w (Time.span_ms 100);
  suspect_everywhere w 0;
  suspect_everywhere w 1;
  run_for w (Time.span_s 3);
  ignore (check_agreement ~correct:[ 2; 3; 4; 5; 6 ] w 0)

(* ---- Wrong suspicions (safety under FD inaccuracy) ---- *)

let test_false_suspicion_safe () =
  (* p2 wrongly suspects the (alive) coordinator before it proposes. The
     algorithm may decide in round 1 (without p2's ack) or later, but
     agreement must hold and everyone must terminate. *)
  let w = make () in
  Oracle_fd.suspect w.procs.(1).oracle 0;
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_s 3);
  ignore (check_agreement w 0)

let test_false_suspicion_after_ack () =
  (* p2 acks round 1 then wrongly suspects the coordinator: its higher
     round must not destroy the round-1 decision (locking), and p2 itself
     must still decide the same value. *)
  let w = make () in
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  (* Give round 1 time to partially progress, then inject the suspicion. *)
  run_for w (Time.span_us 400);
  Oracle_fd.suspect w.procs.(1).oracle 0;
  run_for w (Time.span_s 3);
  let d = check_agreement w 0 in
  Alcotest.(check bool) "locked round-1 value" true (Batch.equal d (batch_of_pids [ 0 ]))

let test_everyone_falsely_suspects () =
  let w = make () in
  Array.iteri (fun p proc -> if p <> 0 then Oracle_fd.suspect proc.oracle 0) w.procs;
  Array.iteri
    (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_s 3);
  ignore (check_agreement w 0)

(* Property: random crash/suspicion schedules never violate agreement or
   validity, and all correct processes terminate. *)
let prop_random_crashes =
  let gen =
    QCheck.Gen.(
      let* n = oneofl [ 3; 5; 7 ] in
      let f = (n - 1) / 2 in
      let* crashes = int_bound f in
      let* crash_pids =
        let rec pick acc k =
          if k = 0 then return acc
          else
            let* p = int_bound (n - 1) in
            if List.mem p acc then pick acc k else pick (p :: acc) (k - 1)
        in
        pick [] crashes
      in
      let* delay_us = int_bound 3000 in
      let* seed = int_bound 1000 in
      return (n, crash_pids, delay_us, seed))
  in
  QCheck.Test.make ~name:"consensus safe under random minority crashes" ~count:60
    (QCheck.make gen) (fun (n, crash_pids, delay_us, seed) ->
      let params = { (Params.default ~n) with Params.seed } in
      let w = make ~n ~params () in
      Array.iteri
        (fun p proc -> Consensus.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
        w.procs;
      ignore
        (Engine.schedule_after w.engine (Time.span_us delay_us) (fun () ->
             List.iter
               (fun dead ->
                 Network.crash w.net dead;
                 suspect_everywhere w dead)
               crash_pids));
      run_for w (Time.span_s 10);
      let correct = List.filter (fun p -> not (List.mem p crash_pids)) (Pid.all ~n) in
      let decisions = List.filter_map (fun p -> decision_of w p 0) correct in
      List.length decisions = List.length correct
      &&
      match decisions with
      | [] -> false
      | first :: rest -> List.for_all (Batch.equal first) rest)

(* ---- Gap-driven catch-up, on all three Chandra-Toueg engines ---- *)

(* A lone p1 whose peers never speak unless asked: it learns the decision
   of i2 but not of i0 or i1. One [round1_kick] later it must request
   exactly the two holes; once a peer's [Decision_full] fills both, the
   timer must not re-arm. *)
let test_catchup_requests_holes () =
  let params = Params.default ~n:3 in
  let value = batch_of_pids [ 1 ] in
  let engines =
    [
      ( "optimized",
        fun ~engine ~broadcast ->
          let c =
            Consensus.create ~engine ~params ~me:0 ~fd:Fd.never_suspects
              ~send:(fun ~dst:_ _ -> ()) ~broadcast
              ~rbcast_decision:(fun ~inst:_ ~round:_ ~value:_ -> ())
              ~on_decide:(fun ~inst:_ _ -> ())
              ()
          in
          (Consensus.receive c, fun () -> Consensus.decision c ~inst:1 <> None) );
      ( "classic",
        fun ~engine ~broadcast ->
          let c =
            Consensus_classic.create ~engine ~params ~me:0 ~fd:Fd.never_suspects
              ~send:(fun ~dst:_ _ -> ()) ~broadcast
              ~rbcast_decision:(fun ~inst:_ ~round:_ ~value:_ -> ())
              ~on_decide:(fun ~inst:_ _ -> ())
              ()
          in
          (Consensus_classic.receive c, fun () -> Consensus_classic.decision c ~inst:1 <> None)
      );
      ( "monolithic",
        fun ~engine ~broadcast ->
          let m =
            Abcast_monolithic.create ~engine ~params ~me:0 ~fd:Fd.never_suspects
              ~send:(fun ~dst:_ _ -> ()) ~broadcast ~on_adeliver:ignore ()
          in
          (Abcast_monolithic.receive m, fun () -> Abcast_monolithic.decided_instances m = 3) );
    ]
  in
  List.iter
    (fun (name, make) ->
      let engine = Engine.create () in
      let requested = ref [] in
      let broadcast = function
        | Msg.Decision_request { inst } -> requested := inst :: !requested
        | _ -> ()
      in
      let receive, filled = make ~engine ~broadcast in
      let after kicks =
        Engine.run_until engine
          (Time.add (Engine.now engine) (Time.span_scale kicks params.Params.round1_kick))
      in
      receive ~src:1 (Msg.Decision_full { inst = 2; value });
      after 1;
      Alcotest.(check (list int)) (name ^ ": requests the holes") [ 0; 1 ]
        (List.rev !requested);
      receive ~src:1 (Msg.Decision_full { inst = 0; value });
      receive ~src:1 (Msg.Decision_full { inst = 1; value });
      Alcotest.(check bool) (name ^ ": holes filled") true (filled ());
      after 3;
      Alcotest.(check (list int)) (name ^ ": no request once filled") [ 0; 1 ]
        (List.rev !requested);
      Alcotest.(check int) (name ^ ": timer not re-armed") 0 (Engine.pending engine))
    engines

(* ---- Decided instances collapse into the decision log ---- *)

let int_field sec key = Repro_sim.Snapshot.get_int sec key

(* After a good run every decided instance has left the live table: it
   holds only what the pipeline has in flight (nothing, once quiescent),
   while [decided] still counts every decision. *)
let test_collapse_good_run () =
  let w = make () in
  for inst = 0 to 39 do
    ignore
      (Engine.schedule_at w.engine
         (Time.add Time.zero (Time.span_ms (2 * inst)))
         (fun () ->
           Array.iteri
             (fun p proc -> Consensus.propose proc.consensus ~inst (batch_of_pids [ p ]))
             w.procs))
  done;
  run w;
  Array.iteri
    (fun p proc ->
      let what = Printf.sprintf "p%d" (p + 1) in
      Alcotest.(check int) (what ^ ": every instance decided") 40 (List.length proc.decided);
      Alcotest.(check int) (what ^ ": live table empty") 0
        (Consensus.live_instances proc.consensus);
      let sec = Consensus.snapshot proc.consensus in
      Alcotest.(check (list int)) (what ^ ": instances, decided") [ 40; 40 ]
        (List.map (int_field sec) [ "instances"; "decided" ]))
    w.procs

let test_collapse_good_run_monolithic () =
  let params = Params.default ~n:3 in
  let engine = Engine.create () in
  let net =
    Network.create engine ~kind_names:Msg.kind_names ~kind_index:Msg.kind_index
      ~kind_of:Msg.kind ~n:3 ~payload_bytes:Msg.payload_bytes ()
  in
  let procs =
    Array.init 3 (fun me ->
        let m =
          Abcast_monolithic.create ~engine ~params ~me ~fd:Fd.never_suspects
            ~send:(fun ~dst msg -> Network.send net ~src:me ~dst msg)
            ~broadcast:(fun msg -> Network.send_to_others net ~src:me msg)
            ~on_adeliver:ignore ()
        in
        Network.register net me (fun ~src msg -> Abcast_monolithic.receive m ~src msg);
        m)
  in
  for i = 0 to 59 do
    ignore
      (Engine.schedule_at engine
         (Time.add Time.zero (Time.span_ms (2 * i)))
         (fun () ->
           let origin = i mod 3 in
           Abcast_monolithic.abcast procs.(origin)
             (App_msg.make ~origin ~seq:(i / 3) ~size:256 ~abcast_at:(Engine.now engine))))
  done;
  Engine.run engine;
  Array.iteri
    (fun p m ->
      let what = Printf.sprintf "p%d" (p + 1) in
      Alcotest.(check int) (what ^ ": every message delivered") 60
        (Abcast_monolithic.delivered_count m);
      Alcotest.(check bool) (what ^ ": many instances decided") true
        (Abcast_monolithic.decided_instances m > 20);
      Alcotest.(check int) (what ^ ": live table empty") 0 (Abcast_monolithic.live_instances m);
      let sec = Abcast_monolithic.snapshot m in
      Alcotest.(check int) (what ^ ": decided counts every instance")
        (Abcast_monolithic.decided_instances m) (int_field sec "decided"))
    procs

(* A late message for a collapsed instance is answered from the log: a
   proposal, an estimate, a decision request or (except on the classic
   engine) a solicitation with the decision, the rest with nothing.
   Process p3 takes instance 0 to round 2 and learns its decision from
   p2; every late message must then leave the instance logged, not
   re-created. *)
let test_collapse_late_messages () =
  let params = Params.default ~n:3 in
  let value = batch_of_pids [ 1 ] and other = batch_of_pids [ 2 ] in
  let full dst = Some (dst, Msg.Decision_full { inst = 0; value }) in
  let engines =
    [
      ( "optimized",
        fun ~engine ~send ~broadcast ->
          let c =
            Consensus.create ~engine ~params ~me:2 ~fd:Fd.never_suspects ~send ~broadcast
              ~rbcast_decision:(fun ~inst:_ ~round:_ ~value:_ -> ())
              ~on_decide:(fun ~inst:_ _ -> ())
              ()
          in
          ( Consensus.receive c,
            (fun () -> Consensus.snapshot c),
            (fun () -> Consensus.live_instances c),
            Some (fun () -> (Consensus.decision c ~inst:0, Consensus.rounds_used c ~inst:0)),
            [
              ("propose", 0, Msg.Propose { inst = 0; round = 3; value = other }, full 0);
              ("estimate", 0, Msg.Estimate { inst = 0; round = 3; value = other; ts = 0 }, full 0);
              ("new round", 1, Msg.New_round { inst = 0; round = 3 }, full 1);
              ("ack", 0, Msg.Ack { inst = 0; round = 2 }, None);
              ("decision request", 1, Msg.Decision_request { inst = 0 }, full 1);
              ("decision", 0, Msg.Decision_full { inst = 0; value = other }, None);
            ],
            fun () ->
              Consensus.rb_deliver c ~proposer:1 ~inst:0 ~round:2 ~value:None;
              0 ) );
      ( "classic",
        fun ~engine ~send ~broadcast ->
          let c =
            Consensus_classic.create ~engine ~params ~me:2 ~fd:Fd.never_suspects ~send
              ~broadcast
              ~rbcast_decision:(fun ~inst:_ ~round:_ ~value:_ -> ())
              ~on_decide:(fun ~inst:_ _ -> ())
              ()
          in
          ( Consensus_classic.receive c,
            (fun () -> Consensus_classic.snapshot c),
            (fun () -> Consensus_classic.live_instances c),
            Some
              (fun () ->
                (Consensus_classic.decision c ~inst:0, Consensus_classic.rounds_used c ~inst:0)),
            [
              ("propose", 0, Msg.Propose { inst = 0; round = 3; value = other }, full 0);
              ("estimate", 0, Msg.Estimate { inst = 0; round = 3; value = other; ts = 0 }, full 0);
              ("new round", 1, Msg.New_round { inst = 0; round = 3 }, None);
              ("ack", 0, Msg.Ack { inst = 0; round = 2 }, None);
              ("nack", 0, Msg.Nack { inst = 0; round = 2 }, None);
              ("decision request", 1, Msg.Decision_request { inst = 0 }, full 1);
              ("decision", 0, Msg.Decision_full { inst = 0; value = other }, None);
            ],
            fun () ->
              Consensus_classic.rb_deliver c ~proposer:1 ~inst:0 ~round:2 ~value:None;
              0 ) );
      ( "monolithic",
        fun ~engine ~send ~broadcast ->
          let m =
            Abcast_monolithic.create ~engine ~params ~me:2 ~fd:Fd.never_suspects ~send
              ~broadcast ~on_adeliver:ignore ()
          in
          let prop_dec round decided =
            Msg.Prop_dec { inst = 0; round; proposal = other; decided }
          in
          ( Abcast_monolithic.receive m,
            (fun () -> Abcast_monolithic.snapshot m),
            (fun () -> Abcast_monolithic.live_instances m),
            None,
            [
              ("proposal of an earlier round", 0, prop_dec 1 None, None);
              ("proposal of the decided round", 1, prop_dec 2 None, full 1);
              ("proposal of a later round", 0, prop_dec 3 None, full 0);
              ( "estimate",
                0,
                Msg.Mono_estimate { inst = 0; round = 3; value = other; ts = 0; piggyback = [] },
                full 0 );
              ("new round", 1, Msg.New_round { inst = 0; round = 3 }, full 1);
              ("ack", 0, Msg.Ack_diff { inst = 0; round = 2; piggyback = [] }, None);
              ("decision tag", 1, Msg.Mono_decision_tag { inst = 0; round = 2 }, None);
              ("decision request", 1, Msg.Decision_request { inst = 0 }, full 1);
              ("decision", 0, Msg.Decision_full { inst = 0; value = other }, None);
            ],
            fun () ->
              (* Decision 0 rides the proposal for instance 1 (§4.1),
                 which creates instance 1 only. *)
              Abcast_monolithic.receive m ~src:0
                (Msg.Prop_dec
                   { inst = 1; round = 1; proposal = other; decided = Some (0, 2) });
              1 ) );
    ]
  in
  List.iter
    (fun (name, make) ->
      let engine = Engine.create () in
      let sent = ref [] in
      let show (dst, m) = Printf.sprintf "p%d <- %s" (dst + 1) (Fmt.str "%a" Msg.pp m) in
      let send ~dst m = sent := show (dst, m) :: !sent in
      let broadcast m = sent := ("all <- " ^ Fmt.str "%a" Msg.pp m) :: !sent in
      let receive, snapshot, live, decided, late, last = make ~engine ~send ~broadcast in
      let check_logged what =
        let sec = snapshot () in
        Alcotest.(check (list int))
          (Printf.sprintf "%s, %s: live, instances, decided, max_round" name what)
          [ 0; 1; 1; 2 ]
          (live () :: List.map (int_field sec) [ "instances"; "decided"; "max_round" ])
      in
      receive ~src:1 (Msg.New_round { inst = 0; round = 2 });
      receive ~src:1 (Msg.Decision_full { inst = 0; value });
      check_logged "decided";
      List.iter
        (fun (what, src, msg, expected) ->
          sent := [];
          receive ~src msg;
          Alcotest.(check (list string))
            (Printf.sprintf "%s, late %s: sends" name what)
            (Option.to_list (Option.map show expected))
            (List.rev !sent);
          check_logged ("late " ^ what))
        late;
      Option.iter
        (fun answers ->
          Alcotest.(check bool) (name ^ ": decision still answers") true
            (match answers () with Some b, _ -> Batch.equal b value | None, _ -> false);
          Alcotest.(check int) (name ^ ": rounds_used still answers") 2 (snd (answers ())))
        decided;
      let created = last () in
      let sec = snapshot () in
      Alcotest.(check (list int))
        (name ^ ": a late decision creates no instance")
        [ created; 1 + created; 1 ]
        (live () :: List.map (int_field sec) [ "instances"; "decided" ]))
    engines

let () =
  Alcotest.run "consensus"
    [
      ( "good-runs",
        [
          Alcotest.test_case "basic agreement + validity" `Quick test_basic_agreement;
          Alcotest.test_case "single proposer" `Quick test_single_proposer_coordinator;
          Alcotest.test_case "message pattern (§3.2)" `Quick test_good_run_message_pattern;
          Alcotest.test_case "single round, n=7" `Quick test_good_run_single_round;
          Alcotest.test_case "concurrent instances" `Quick test_concurrent_instances;
          Alcotest.test_case "decision API" `Quick test_decision_api;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "coordinator crash before propose" `Quick
            test_coordinator_crash_before_propose;
          Alcotest.test_case "coordinator crash mid-broadcast" `Quick
            test_coordinator_crash_mid_broadcast;
          Alcotest.test_case "crash during decision broadcast" `Quick
            test_crash_after_decision_sent_partially;
          Alcotest.test_case "two coordinator crashes (n=7)" `Quick
            test_two_coordinator_crashes;
        ] );
      ( "suspicions",
        [
          Alcotest.test_case "false suspicion before propose" `Quick
            test_false_suspicion_safe;
          Alcotest.test_case "false suspicion after ack (locking)" `Quick
            test_false_suspicion_after_ack;
          Alcotest.test_case "everyone falsely suspects" `Quick
            test_everyone_falsely_suspects;
        ] );
      ( "catch-up",
        [
          Alcotest.test_case "requests only the holes, all engines" `Quick
            test_catchup_requests_holes;
        ] );
      ( "decided",
        [
          Alcotest.test_case "decided instances leave the live table" `Quick
            test_collapse_good_run;
          Alcotest.test_case "decided instances leave the live table, monolithic" `Quick
            test_collapse_good_run_monolithic;
          Alcotest.test_case "late messages answered from the log, all engines" `Quick
            test_collapse_late_messages;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_crashes ]);
    ]
