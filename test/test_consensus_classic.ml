(* Tests for the classical (non-optimized) Chandra-Toueg consensus — the
   §3.2 baseline: estimate phase in every round, unconditional round
   cycling with nacks, full-value decisions. Checks the same agreement /
   validity / termination properties as the optimized variant, the
   classical message pattern, and that the §3.2 optimizations actually
   save traffic. *)

open Repro_sim
open Repro_net
open Repro_fd
open Repro_core

let classic_params n =
  let p = Params.default ~n in
  { p with Params.modular = { p.Params.modular with Params.consensus_variant = Params.Ct_classic } }

type proc = {
  consensus : Consensus_classic.t;
  oracle : Oracle_fd.t;
  mutable decided : (int * Batch.t) list;
}

type world = {
  engine : Engine.t;
  net : Msg.t Network.t;
  procs : proc array;
}

let msg ~origin ~seq = App_msg.make ~origin ~seq ~size:100 ~abcast_at:Time.zero
let batch_of_pids pids = Batch.of_list (List.map (fun p -> msg ~origin:p ~seq:0) pids)

let make ?(n = 3) () =
  let params = classic_params n in
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
               Rbcast.create ~me ~n ~variant:Params.Majority
                 ~broadcast:(fun ~meta (inst, round, value) ->
                   broadcast (Msg.Decision_tag { meta; inst; round; value }))
                 ~deliver:(fun ~meta (inst, round, value) ->
                   Consensus_classic.rb_deliver
                     (Lazy.force proc).consensus
                     ~proposer:meta.Msg.rb_origin ~inst ~round ~value)
                 ()
             in
             let consensus =
               Consensus_classic.create ~engine ~params ~me ~fd:(Oracle_fd.fd oracle)
                 ~send ~broadcast
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
                 | _ -> Consensus_classic.receive (Lazy.force proc).consensus ~src m);
             { consensus; oracle; decided = [] })
        in
        Lazy.force proc)
  in
  { engine; net; procs }

let decision_of w p inst = List.assoc_opt inst w.procs.(p).decided
let run_for w span = Engine.run_until w.engine (Time.add (Engine.now w.engine) span)

let check_agreement ?(correct = []) w inst =
  let correct = if correct = [] then Pid.all ~n:(Array.length w.procs) else correct in
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

let test_agreement_good_run () =
  let w = make () in
  Array.iteri
    (fun p proc -> Consensus_classic.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_s 2);
  ignore (check_agreement w 0)

let test_estimate_phase_runs () =
  (* The classical signature: round-1 estimates on the wire (the optimized
     variant sends none in good runs). *)
  let w = make () in
  Array.iteri
    (fun p proc -> Consensus_classic.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_s 2);
  ignore (check_agreement w 0);
  let kinds = Net_stats.by_kind (Network.stats w.net) in
  (match List.assoc_opt "estimate" kinds with
  | Some c -> Alcotest.(check bool) "estimates on the wire" true (c >= 2)
  | None -> Alcotest.fail "classical variant must send estimates");
  (* Decisions carry the full value: payload of decision tags exceeds the
     bare-tag size times the count. *)
  Alcotest.(check bool) "proposal present" true (List.mem_assoc "propose" kinds)

let test_validity_max_ts_selection () =
  (* The coordinator proposes as soon as it holds a majority of estimates
     (its own plus one other at n=3). With only p1 and p2 proposing, that
     majority is exactly {p1's, p2's}; all timestamps are 0 so the
     deterministic tie-break picks the larger batch — p2's. *)
  let w = make () in
  let big = Batch.of_list [ msg ~origin:1 ~seq:0; msg ~origin:1 ~seq:1 ] in
  Consensus_classic.propose w.procs.(0).consensus ~inst:0 (batch_of_pids [ 0 ]);
  Consensus_classic.propose w.procs.(1).consensus ~inst:0 big;
  run_for w (Time.span_s 2);
  let d = check_agreement w 0 in
  Alcotest.(check bool) "largest estimate chosen" true (Batch.equal d big)

let test_rounds_cycle () =
  (* Classical cycling: processes enter round 2 even in a good run. *)
  let w = make () in
  Array.iteri
    (fun p proc -> Consensus_classic.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_s 2);
  ignore (check_agreement w 0);
  let some_advanced =
    Array.exists (fun p -> Consensus_classic.rounds_used p.consensus ~inst:0 >= 2) w.procs
  in
  Alcotest.(check bool) "rounds cycled past 1" true some_advanced

let suspect_everywhere w dead =
  Array.iteri (fun p proc -> if p <> dead then Oracle_fd.suspect proc.oracle dead) w.procs

let test_coordinator_crash () =
  let w = make () in
  Network.crash w.net 0;
  Consensus_classic.propose w.procs.(1).consensus ~inst:0 (batch_of_pids [ 1 ]);
  Consensus_classic.propose w.procs.(2).consensus ~inst:0 (batch_of_pids [ 2 ]);
  run_for w (Time.span_ms 100);
  suspect_everywhere w 0;
  run_for w (Time.span_s 3);
  let d = check_agreement ~correct:[ 1; 2 ] w 0 in
  Alcotest.(check bool) "survivor value decided" true
    (Batch.equal d (batch_of_pids [ 1 ]) || Batch.equal d (batch_of_pids [ 2 ]))

let test_nacks_on_suspicion () =
  (* A suspicion raised while a process waits in phase 3 (estimate sent,
     proposal not yet acked) produces an explicit nack to the round's
     coordinator, per the classical algorithm. *)
  let w = make ~n:5 () in
  Array.iteri
    (fun p proc -> Consensus_classic.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  (* Estimates are in flight; the round-1 proposal has not yet reached p5
     (it needs two CPU hops plus the coordinator's majority wait). *)
  ignore
    (Engine.schedule_after w.engine (Time.span_us 400) (fun () ->
         Oracle_fd.suspect w.procs.(4).oracle 0));
  run_for w (Time.span_s 3);
  ignore (check_agreement ~correct:[ 0; 1; 2; 3 ] w 0);
  match List.assoc_opt "nack" (Net_stats.by_kind (Network.stats w.net)) with
  | Some c -> Alcotest.(check bool) "nack sent" true (c >= 1)
  | None -> Alcotest.fail "expected a nack from the suspecting process"

let test_false_suspicion_locking () =
  (* A process that acked round 1 and then cycles onward must never allow a
     different value to be decided (max-ts selection). *)
  let w = make () in
  Array.iteri
    (fun p proc -> Consensus_classic.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
    w.procs;
  run_for w (Time.span_us 800);
  Oracle_fd.suspect w.procs.(2).oracle 0;
  run_for w (Time.span_s 3);
  ignore (check_agreement w 0)

(* ---- Stack level: modular abcast over the classical consensus ---- *)

let test_stack_total_order () =
  let params = classic_params 3 in
  let g = Group.create ~kind:Replica.Modular ~params () in
  for i = 0 to 29 do
    Group.abcast g (i mod 3) ~size:512
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ());
  let l0 = Group.deliveries g 0 in
  Alcotest.(check int) "all delivered" 30 (List.length l0);
  Alcotest.(check bool) "same order at p2" true (Group.deliveries g 1 = l0);
  Alcotest.(check bool) "same order at p3" true (Group.deliveries g 2 = l0)

let test_stack_crash_recovery () =
  let params = classic_params 3 in
  let g =
    Group.create ~kind:Replica.Modular ~params
      ~fd_mode:(`Heartbeat Heartbeat_fd.default_config) ()
  in
  Group.abcast g 1 ~size:256;
  Group.run_for g (Time.span_ms 50);
  Group.crash g 0;
  Group.abcast g 1 ~size:256;
  Group.abcast g 2 ~size:256;
  Group.run_for g (Time.span_s 5);
  let l1 = Group.deliveries g 1 and l2 = Group.deliveries g 2 in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check bool) "progress after crash" true (List.length l1 >= 3)

let test_classic_costs_more () =
  (* The point of §3.2: the optimized variant sends fewer messages and
     fewer bytes per delivered message. *)
  let measure variant =
    let p = Params.default ~n:3 in
    let params =
      { p with Params.modular = { p.Params.modular with Params.consensus_variant = variant } }
    in
    let g = Group.create ~kind:Replica.Modular ~params ~record_deliveries:false () in
    for i = 0 to 59 do
      Group.abcast g (i mod 3) ~size:1024
    done;
    ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ());
    let s = Net_stats.snapshot (Group.stats g) in
    let delivered = Replica.delivered_count (Group.replica g 0) in
    Alcotest.(check int) "all delivered" 60 delivered;
    ( float_of_int s.Net_stats.messages /. float_of_int delivered,
      float_of_int s.Net_stats.payload_bytes /. float_of_int delivered )
  in
  let opt_msgs, opt_bytes = measure Params.Ct_optimized in
  let classic_msgs, classic_bytes = measure Params.Ct_classic in
  Alcotest.(check bool)
    (Printf.sprintf "classic sends more messages (%.1f vs %.1f)" classic_msgs opt_msgs)
    true (classic_msgs > opt_msgs);
  Alcotest.(check bool)
    (Printf.sprintf "classic sends more bytes (%.0f vs %.0f)" classic_bytes opt_bytes)
    true (classic_bytes > opt_bytes)

(* Property: classical consensus is safe under random minority crashes. *)
let prop_random_crashes =
  QCheck.Test.make ~name:"classical consensus safe under random crashes" ~count:40
    QCheck.(triple (oneofl [ 3; 5 ]) (int_bound 2000) (int_bound 999))
    (fun (n, delay_us, seed) ->
      ignore seed;
      let w = make ~n () in
      Array.iteri
        (fun p proc ->
          Consensus_classic.propose proc.consensus ~inst:0 (batch_of_pids [ p ]))
        w.procs;
      let dead = seed mod n in
      ignore
        (Engine.schedule_after w.engine (Time.span_us delay_us) (fun () ->
             Network.crash w.net dead;
             suspect_everywhere w dead));
      run_for w (Time.span_s 10);
      let correct = List.filter (fun p -> p <> dead) (Pid.all ~n) in
      let decisions = List.filter_map (fun p -> decision_of w p 0) correct in
      List.length decisions = List.length correct
      &&
      match decisions with
      | [] -> false
      | first :: rest -> List.for_all (Batch.equal first) rest)

(* Decided instances leave the live table for the decision log: after a
   good run it is empty, while every decision is still counted. *)
let test_collapse_good_run () =
  let w = make () in
  for inst = 0 to 39 do
    ignore
      (Engine.schedule_at w.engine
         (Time.add Time.zero (Time.span_ms (2 * inst)))
         (fun () ->
           Array.iteri
             (fun p proc -> Consensus_classic.propose proc.consensus ~inst (batch_of_pids [ p ]))
             w.procs))
  done;
  Engine.run w.engine;
  Array.iteri
    (fun p proc ->
      let what = Printf.sprintf "p%d" (p + 1) in
      Alcotest.(check int) (what ^ ": every instance decided") 40 (List.length proc.decided);
      Alcotest.(check int) (what ^ ": live table empty") 0
        (Consensus_classic.live_instances proc.consensus);
      let sec = Consensus_classic.snapshot proc.consensus in
      Alcotest.(check (list int)) (what ^ ": instances, decided") [ 40; 40 ]
        (List.map (Repro_sim.Snapshot.get_int sec) [ "instances"; "decided" ]))
    w.procs

let () =
  Alcotest.run "consensus-classic"
    [
      ( "good-runs",
        [
          Alcotest.test_case "agreement" `Quick test_agreement_good_run;
          Alcotest.test_case "estimate phase on the wire" `Quick test_estimate_phase_runs;
          Alcotest.test_case "max-ts selection" `Quick test_validity_max_ts_selection;
          Alcotest.test_case "rounds cycle unconditionally" `Quick test_rounds_cycle;
          Alcotest.test_case "decided instances leave the live table" `Quick
            test_collapse_good_run;
        ] );
      ( "faults",
        [
          Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash;
          Alcotest.test_case "nacks on suspicion" `Quick test_nacks_on_suspicion;
          Alcotest.test_case "false suspicion (locking)" `Quick test_false_suspicion_locking;
          QCheck_alcotest.to_alcotest prop_random_crashes;
        ] );
      ( "stack",
        [
          Alcotest.test_case "total order over classic consensus" `Quick
            test_stack_total_order;
          Alcotest.test_case "crash recovery at stack level" `Quick
            test_stack_crash_recovery;
          Alcotest.test_case "§3.2 optimizations save traffic" `Quick
            test_classic_costs_more;
        ] );
    ]
