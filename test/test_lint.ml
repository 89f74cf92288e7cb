(* Tests for the repro-lint pass: each determinism rule against a fixture
   with violations at known lines (test/lint_fixtures/), the boundary
   checker's spec semantics against synthetic edges, the committed
   lint/boundaries.spec against the references it exists to reject, and an
   end-to-end run asserting the repo's own lib/ is violation-free modulo
   the committed waivers.

   The test binary runs in _build/default/test, so fixture .cmt files are
   under lint_fixtures/ and the repo's under ../lib; the committed spec and
   waiver files are declared as test deps in test/dune. *)

open Repro_lint

let spec_file = "../lint/boundaries.spec"
let waivers_file = "../lint/lint.waivers"

(* ---- fixtures ---- *)

let fixture_report =
  lazy
    (match Lint.run ~build_root:"." ~src_dirs:[ "lint_fixtures" ] () with
    | Ok r -> r
    | Error e -> Alcotest.failf "lint of fixtures failed: %s" e)

(* (rule, line) pairs reported in one fixture file, in report order. *)
let hits base =
  let r = Lazy.force fixture_report in
  List.filter_map
    (fun (v : Violation.t) ->
      if Filename.basename v.Violation.file = base then
        Some (v.Violation.rule, v.Violation.line)
      else None)
    r.Lint.violations

let rule_line = Alcotest.(pair string int)

let test_fixture_random () =
  Alcotest.(check (list rule_line))
    "Random.int, Random.bool, module alias; R.bool not double-counted"
    [ ("random", 2); ("random", 3); ("random", 5) ]
    (hits "fx_random.ml")

let test_fixture_wallclock () =
  Alcotest.(check (list rule_line))
    "Unix.gettimeofday and Sys.time"
    [ ("wall-clock", 2); ("wall-clock", 3) ]
    (hits "fx_wallclock.ml")

let test_fixture_hashtbl () =
  Alcotest.(check (list rule_line))
    "iter and unsorted fold flagged; fold piped into List.sort sanctioned"
    [ ("hashtbl-order", 4); ("hashtbl-order", 7) ]
    (hits "fx_hashtbl.ml")

let test_fixture_physeq () =
  Alcotest.(check (list rule_line))
    "(==) at int list flagged, at int exempt"
    [ ("phys-eq", 3) ]
    (hits "fx_physeq.ml")

let test_fixture_polycompare () =
  Alcotest.(check (list rule_line))
    "compare on closures and (=) on refs flagged; int and x = None exempt"
    [ ("poly-compare", 4); ("poly-compare", 6) ]
    (hits "fx_polycompare.ml")

let test_fixture_topstate () =
  Alcotest.(check (list rule_line))
    "toplevel ref/Hashtbl/submodule Buffer flagged; function-local and \
     indirectly-built state exempt"
    [ ("toplevel-state", 6); ("toplevel-state", 8); ("toplevel-state", 11) ]
    (hits "fx_topstate.ml")

let test_fixture_clean () =
  Alcotest.(check (list rule_line)) "clean fixture stays clean" [] (hits "fx_clean.ml")

let test_fixture_snapshot () =
  Alcotest.(check (list rule_line))
    "unread mutable field and unread Hashtbl flagged; arrow and constant \
     array exempt; helper-read and whole-record-copy pairs pass"
    [ ("snapshot-completeness", 6); ("snapshot-completeness", 7) ]
    (hits "fx_snapshot.ml")

let test_fixture_capture () =
  Alcotest.(check (list rule_line))
    "captures of a toplevel ref, a Hashtbl parameter and a written-through \
     array flagged at Pool.map sites; pure task + ~collect sanctioned \
     (line 4 is the fixture's own toplevel-state hit)"
    [
      ("toplevel-state", 4);
      ("domain-capture", 7);
      ("domain-capture", 10);
      ("domain-capture", 13);
    ]
    (hits "fx_capture.ml")

let test_fixture_rng () =
  Alcotest.(check (list rule_line))
    "raw seed arithmetic, foreign-stream draw and cross-boundary handoff \
     flagged; derive and split-then-draw sanctioned"
    [ ("rng-stream", 7); ("rng-stream", 10); ("rng-stream", 16) ]
    (hits "fx_rng.ml")

(* ---- snapshot-completeness against the real tree ----

   The acceptance check for the rule's teeth: on real net, sim and core
   sections, the obligation set is non-empty and every obligation is
   currently covered — so deleting any of those field reads from
   [snapshot] flips exactly that field into a violation (the failing side
   of the mechanism is pinned by fx_snapshot.ml above). Consensus covers
   its per-round tables through the [{ s with ... }] copy, Replica its
   sub-components through the [sections] aggregator. The rule is keyed
   on a [snapshot] returning a section, so it audits exactly the units
   below and not [Net_stats], whose [snapshot] returns traffic totals. *)

let structure_of_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> Alcotest.failf "%s: unreadable .cmt" path
  | cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      (str, Boundaries.unit_of_modname cmt.Cmt_format.cmt_modname)
    | _ -> Alcotest.failf "%s: not an implementation .cmt" path)

let test_snapshot_obligations_real () =
  let check_unit cmt must_include =
    let str, unit = structure_of_cmt cmt in
    let obligations, coverage = Snapshot_rule.debug_pairs ?unit str in
    Alcotest.(check bool)
      (cmt ^ ": pair has obligations")
      true (obligations <> []);
    List.iter
      (fun ob ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: obligation %s.%s present" cmt (fst ob) (snd ob))
          true (List.mem ob obligations))
      must_include;
    List.iter
      (fun (tname, label) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s.%s read by snapshot" cmt tname label)
          true
          (List.mem (tname, label) coverage))
      obligations
  in
  check_unit "../lib/net/.repro_net.objs/byte/repro_net__Rchannel.cmt"
    [ ("link_out", "backoff"); ("t", "retransmissions") ];
  check_unit "../lib/sim/.repro_sim.objs/byte/repro_sim__Event_queue.cmt"
    [ ("t", "pending"); ("t", "next_seq") ];
  check_unit "../lib/core/.repro_core.objs/byte/repro_core__Ct_instances.cmt"
    [
      ("inst", "acks"); ("inst", "proposals"); ("inst", "estimates"); ("inst", "started");
      ("inst", "ext");
      ("t", "catchup_from"); ("t", "decisions"); ("t", "decided_rounds");
    ];
  check_unit "../lib/core/.repro_core.objs/byte/repro_core__Replica.cmt"
    [ ("t", "offers"); ("t", "rchannel"); ("t", "heartbeat"); ("t", "impl") ];
  let audited lib m =
    let str, unit =
      structure_of_cmt
        (Printf.sprintf "../lib/%s/.repro_%s.objs/byte/repro_%s__%s.cmt" lib lib lib m)
    in
    fst (Snapshot_rule.debug_pairs ?unit str) <> []
  in
  List.iter
    (fun (lib, m) ->
      Alcotest.(check bool) (Printf.sprintf "%s.%s audited" lib m) true (audited lib m))
    [
      ("sim", "Engine"); ("sim", "Event_queue"); ("sim", "Cpu"); ("sim", "Rng");
      ("net", "Network"); ("net", "Rchannel"); ("fd", "Heartbeat_fd");
      ("framework", "Event_bus"); ("core", "Flow_control"); ("core", "Rbcast");
      ("core", "Ct_instances"); ("core", "Abcast_modular");
      ("core", "Abcast_indirect"); ("core", "Abcast_monolithic"); ("core", "Replica");
      ("core", "Group"); ("obs", "Obs"); ("workload", "Generator"); ("fault", "Monitor");
    ];
  Alcotest.(check bool) "net.Net_stats not audited" false (audited "net" "Net_stats")

(* ---- JSON output ---- *)

let test_json_roundtrip () =
  let r = Lazy.force fixture_report in
  let lines = Lint.json_lines r in
  Alcotest.(check bool) "fixtures produce json lines" true (lines <> []);
  let parsed =
    List.map
      (fun l ->
        match Violation.of_json l with
        | Ok p -> p
        | Error e -> Alcotest.failf "unparseable json line %s (%s)" l e)
      lines
  in
  let expect =
    List.map (fun v -> (v, false)) r.Lint.violations
    @ List.map (fun v -> (v, true)) r.Lint.waived
  in
  Alcotest.(check int) "line count" (List.length expect) (List.length parsed);
  List.iter2
    (fun (v, w) (v', w') ->
      Alcotest.(check bool)
        (Printf.sprintf "%s:%d round-trips" v.Violation.file v.Violation.line)
        true
        (v = v' && w = w'))
    expect parsed

let test_json_escaping () =
  let v =
    {
      Violation.rule = "rule-x";
      file = "dir \"q\"/b\\c.ml";
      line = 42;
      col = 7;
      message = "tab\there, newline\nthere, \"quotes\" and a ctrl \001 byte";
    }
  in
  match Violation.of_json (Violation.to_json ~waived:true v) with
  | Ok (v', true) ->
    Alcotest.(check bool) "escaped violation round-trips" true (v = v')
  | Ok (_, false) -> Alcotest.fail "waived flag lost"
  | Error e -> Alcotest.failf "escaped violation unparseable: %s" e

(* ---- stale-artifact guard ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let copy_file src dst =
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc contents)

let contains_substring needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_stale_guard () =
  (* A fake build tree holding one real fixture .cmt back-dated to the
     epoch, and a fake checkout whose matching source is newer. *)
  let tmp = Filename.temp_file "lint_stale" "" in
  Sys.remove tmp;
  let build_root = Filename.concat tmp "build" in
  let source_root = Filename.concat tmp "src" in
  let cmt_dir = Filename.concat build_root "fx" in
  mkdir_p cmt_dir;
  let cmt = Filename.concat cmt_dir "lint_fixtures__Fx_clean.cmt" in
  copy_file "lint_fixtures/.lint_fixtures.objs/byte/lint_fixtures__Fx_clean.cmt"
    cmt;
  (* The .cmt records its source as test/lint_fixtures/fx_clean.ml. *)
  let src = Filename.concat source_root "test/lint_fixtures/fx_clean.ml" in
  mkdir_p (Filename.dirname src);
  Out_channel.with_open_text src (fun oc ->
      Out_channel.output_string oc "(* newer than the artifact *)\n");
  Unix.utimes cmt 1000.0 1000.0;
  Alcotest.(check bool) "is_stale sees the gap" true (Lint.is_stale ~cmt ~source:src);
  (match
     Lint.run ~build_root ~src_dirs:[ "fx" ] ~source_root ()
   with
  | Error e ->
    Alcotest.(check bool) "stale artifacts are an error" true
      (contains_substring "stale" e)
  | Ok _ -> Alcotest.fail "stale artifact not rejected");
  (match
     Lint.run ~build_root ~src_dirs:[ "fx" ] ~source_root ~allow_stale:true ()
   with
  | Error e -> Alcotest.failf "--allow-stale still failed: %s" e
  | Ok r ->
    Alcotest.(check (list (pair string string)))
      "stale pair carried in the report"
      [ ("test/lint_fixtures/fx_clean.ml", cmt) ]
      r.Lint.stale);
  (* Source older than the artifact: not stale, guard stays quiet. *)
  Unix.utimes src 500.0 500.0;
  Unix.utimes cmt 1000.0 1000.0;
  Alcotest.(check bool) "fresh artifact passes" false
    (Lint.is_stale ~cmt ~source:src);
  match Lint.run ~build_root ~src_dirs:[ "fx" ] ~source_root () with
  | Error e -> Alcotest.failf "fresh artifact rejected: %s" e
  | Ok r -> Alcotest.(check int) "no stale entries" 0 (List.length r.Lint.stale)

(* ---- waivers against the new rules, end to end ---- *)

let test_waiver_new_rules () =
  let waivers_tmp = Filename.temp_file "lint_waiver" ".waivers" in
  Out_channel.with_open_text waivers_tmp (fun oc ->
      Out_channel.output_string oc
        "snapshot-completeness test/lint_fixtures/fx_snapshot.ml -- fixture \
         exercises the rule\n\
         rng-stream test/lint_fixtures/fx_clean.ml -- matches nothing, must \
         be reported unused\n");
  match
    Lint.run ~build_root:"." ~src_dirs:[ "lint_fixtures" ]
      ~waivers_file:waivers_tmp ()
  with
  | Error e -> Alcotest.failf "fixture lint with waivers failed: %s" e
  | Ok r ->
    let waived_snapshot =
      List.filter
        (fun v -> v.Violation.rule = "snapshot-completeness")
        r.Lint.waived
    in
    Alcotest.(check int) "both snapshot violations waived" 2
      (List.length waived_snapshot);
    Alcotest.(check bool) "no active snapshot-completeness left" false
      (List.exists
         (fun v -> v.Violation.rule = "snapshot-completeness")
         r.Lint.violations);
    Alcotest.(check bool) "other new rules stay active" true
      (List.exists (fun v -> v.Violation.rule = "domain-capture") r.Lint.violations
      && List.exists (fun v -> v.Violation.rule = "rng-stream") r.Lint.violations);
    (match r.Lint.unused_waivers with
    | [ w ] ->
      Alcotest.(check string) "unused waiver reported" "rng-stream" w.Waivers.rule
    | ws -> Alcotest.failf "expected one unused waiver, got %d" (List.length ws));
    (* Waived findings survive into the JSON stream, marked waived. *)
    let waived_json =
      List.filter
        (fun l ->
          match Violation.of_json l with
          | Ok (v, true) -> v.Violation.rule = "snapshot-completeness"
          | _ -> false)
        (Lint.json_lines r)
    in
    Alcotest.(check int) "waived findings marked in json" 2
      (List.length waived_json)

(* ---- spec semantics on synthetic edges ---- *)

let u lib m = { Boundaries.lib; m }

let edge src dst =
  { Boundaries.src; dst; file = "synthetic.ml"; line = 1 }

let check_spec rules edges =
  List.length (Boundaries.check ~spec_name:"test.spec" rules edges)

let parse_ok spec =
  match Boundaries.parse_spec spec with
  | Ok rules -> rules
  | Error e -> Alcotest.failf "spec did not parse: %s" e

let test_spec_parse () =
  let rules =
    parse_ok
      "# comment\n\nonly a -> a b\ndeny a.M -> b.N c # trailing\nallow * -> a\n"
  in
  Alcotest.(check int) "three rules" 3 (List.length rules);
  (match Boundaries.parse_spec "frobnicate a -> b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown keyword accepted");
  match Boundaries.parse_spec "only a ->" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing destination accepted"

let test_spec_only () =
  let rules = parse_ok "only a -> a b" in
  Alcotest.(check int) "in-list edge passes" 0
    (check_spec rules [ edge (u "a" "M") (u "b" "N") ]);
  Alcotest.(check int) "out-of-list edge violates" 1
    (check_spec rules [ edge (u "a" "M") (u "c" "N") ]);
  Alcotest.(check int) "other sources unconstrained" 0
    (check_spec rules [ edge (u "z" "M") (u "c" "N") ])

let test_spec_deny_allow () =
  let rules = parse_ok "allow a.M -> b.Special\ndeny a -> b" in
  Alcotest.(check int) "deny matches lib-wide" 1
    (check_spec rules [ edge (u "a" "Other") (u "b" "N") ]);
  Alcotest.(check int) "allow wins over deny" 0
    (check_spec rules [ edge (u "a" "M") (u "b" "Special") ]);
  Alcotest.(check int) "allow is module-precise" 1
    (check_spec rules [ edge (u "a" "M") (u "b" "N") ])

(* The committed spec must reject direct references among the protocol
   modules (they compose only through Framework wiring in Replica), and
   keep the one sanctioned section-4 fusion. *)
let test_committed_spec_isolation () =
  let rules =
    match Boundaries.load_spec spec_file with
    | Ok r -> r
    | Error e -> Alcotest.failf "committed spec did not load: %s" e
  in
  let violates src dst = check_spec rules [ edge src dst ] > 0 in
  let modular = u "core" "Abcast_modular"
  and consensus = u "core" "Consensus"
  and rbcast = u "core" "Rbcast"
  and monolithic = u "core" "Abcast_monolithic" in
  Alcotest.(check bool) "abcast -> consensus rejected" true
    (violates modular consensus);
  Alcotest.(check bool) "consensus -> abcast rejected" true
    (violates consensus modular);
  Alcotest.(check bool) "consensus -> rbcast rejected" true
    (violates consensus rbcast);
  Alcotest.(check bool) "abcast -> rbcast rejected" true (violates modular rbcast);
  Alcotest.(check bool) "abcast -> framework wiring rejected" true
    (violates modular (u "framework" "Event_bus"));
  Alcotest.(check bool) "monolithic fusion of rbcast sanctioned" false
    (violates monolithic rbcast);
  Alcotest.(check bool) "monolithic -> consensus still rejected" true
    (violates monolithic consensus);
  Alcotest.(check bool) "instance helper -> consensus rejected" true
    (violates (u "core" "Ct_instances") consensus);
  Alcotest.(check bool) "consensus may use the instance helper" false
    (violates consensus (u "core" "Ct_instances"));
  Alcotest.(check bool) "replica may wire consensus" false
    (violates (u "core" "Replica") consensus);
  Alcotest.(check bool) "obs -> core rejected" true
    (violates (u "obs" "Obs") (u "core" "Msg"));
  Alcotest.(check bool) "sim -> framework rejected" true
    (violates (u "sim" "Engine") (u "framework" "Event_bus"));
  (* The parallel pool is a harness utility: workload and fault may fan
     runs over it, protocol layers must never see it, and it must stay a
     leaf (no dependency back into the stack). *)
  Alcotest.(check bool) "workload -> parallel sanctioned" false
    (violates (u "workload" "Parmap") (u "parallel" "Pool"));
  Alcotest.(check bool) "fault -> parallel sanctioned" false
    (violates (u "fault" "Campaign") (u "parallel" "Pool"));
  Alcotest.(check bool) "core -> parallel rejected" true
    (violates (u "core" "Replica") (u "parallel" "Pool"));
  Alcotest.(check bool) "net -> parallel rejected" true
    (violates (u "net" "Network") (u "parallel" "Pool"));
  Alcotest.(check bool) "sim -> parallel rejected" true
    (violates (u "sim" "Engine") (u "parallel" "Pool"));
  Alcotest.(check bool) "parallel stays a leaf" true
    (violates (u "parallel" "Pool") (u "sim" "Engine"))

(* ---- waivers ---- *)

let test_waiver_parse () =
  let ws =
    match Waivers.parse "# c\nhashtbl-order lib/x.ml -- commutative fold\n" with
    | Ok ws -> ws
    | Error e -> Alcotest.failf "waiver did not parse: %s" e
  in
  (match ws with
  | [ w ] ->
    Alcotest.(check string) "rule" "hashtbl-order" w.Waivers.rule;
    Alcotest.(check string) "path" "lib/x.ml" w.Waivers.path;
    Alcotest.(check string) "reason" "commutative fold" w.Waivers.reason
  | _ -> Alcotest.failf "expected one waiver, got %d" (List.length ws));
  match Waivers.parse "hashtbl-order lib/x.ml" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "waiver without justification accepted"

let test_waiver_apply () =
  let v rule file =
    { Violation.rule; file; line = 1; col = 0; message = "m" }
  in
  let w rule path = { Waivers.rule; path; reason = "r"; line = 1 } in
  let active, waived, unused =
    Waivers.apply
      [ w "random" "lib/a.ml"; w "phys-eq" "lib/never.ml" ]
      [ v "random" "lib/a.ml"; v "random" "lib/b.ml" ]
  in
  Alcotest.(check int) "one active" 1 (List.length active);
  Alcotest.(check int) "one waived" 1 (List.length waived);
  (match active with
  | [ a ] -> Alcotest.(check string) "b.ml stays active" "lib/b.ml" a.Violation.file
  | _ -> Alcotest.fail "wrong active set");
  match unused with
  | [ un ] -> Alcotest.(check string) "unused reported" "phys-eq" un.Waivers.rule
  | _ -> Alcotest.fail "expected exactly one unused waiver"

(* ---- dot export ---- *)

let test_dot_export () =
  let dot =
    Boundaries.to_dot
      [ edge (u "core" "Replica") (u "framework" "Event_bus") ]
  in
  let has needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph");
  Alcotest.(check bool) "cluster per lib" true (has "cluster_framework");
  Alcotest.(check bool) "edge present" true
    (has "\"core.Replica\" -> \"framework.Event_bus\"")

(* ---- end to end: the repo lints clean ---- *)

let test_repo_is_clean () =
  match
    Lint.run ~build_root:".." ~spec_file ~waivers_file ()
  with
  | Error e -> Alcotest.failf "repo lint failed to run: %s" e
  | Ok r ->
    List.iter
      (fun v -> Fmt.epr "unexpected: %a@." Violation.pp v)
      r.Lint.violations;
    Alcotest.(check int) "lib/ violation-free modulo waivers" 0
      (List.length r.Lint.violations);
    Alcotest.(check bool) "waiver budget respected (<= 5)" true
      (List.length r.Lint.waived <= 5);
    Alcotest.(check int) "no rotting waivers" 0 (List.length r.Lint.unused_waivers);
    Alcotest.(check bool) "graph is non-trivial" true (List.length r.Lint.edges > 100)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "random" `Quick test_fixture_random;
          Alcotest.test_case "wall-clock" `Quick test_fixture_wallclock;
          Alcotest.test_case "hashtbl-order" `Quick test_fixture_hashtbl;
          Alcotest.test_case "phys-eq" `Quick test_fixture_physeq;
          Alcotest.test_case "poly-compare" `Quick test_fixture_polycompare;
          Alcotest.test_case "toplevel-state" `Quick test_fixture_topstate;
          Alcotest.test_case "clean" `Quick test_fixture_clean;
          Alcotest.test_case "snapshot-completeness" `Quick test_fixture_snapshot;
          Alcotest.test_case "domain-capture" `Quick test_fixture_capture;
          Alcotest.test_case "rng-stream" `Quick test_fixture_rng;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "real snapshot obligations covered" `Quick
            test_snapshot_obligations_real;
        ] );
      ( "json",
        [
          Alcotest.test_case "report round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
        ] );
      ( "stale",
        [ Alcotest.test_case "guard" `Quick test_stale_guard ] );
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "only" `Quick test_spec_only;
          Alcotest.test_case "deny/allow" `Quick test_spec_deny_allow;
          Alcotest.test_case "committed isolation" `Quick
            test_committed_spec_isolation;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "parse" `Quick test_waiver_parse;
          Alcotest.test_case "apply" `Quick test_waiver_apply;
          Alcotest.test_case "new rules end-to-end" `Quick test_waiver_new_rules;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_export ]);
      ("repo", [ Alcotest.test_case "clean" `Quick test_repo_is_clean ]);
    ]
