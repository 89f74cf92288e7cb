(* The time-travel subsystem (lib/replay + the per-module snapshot
   sections): codec round-trips, rejection of corrupt frame logs, and the
   observational-equivalence property the whole design rests on — a
   suffix resumed from any frame reproduces the t=0 run's observable
   bytes exactly, for all three stacks, and recording at any cadence
   leaves the run's results bit-for-bit identical to the unrecorded
   engine. *)

open Repro_sim
open Repro_core
module Experiment = Repro_workload.Experiment
module Campaign = Repro_fault.Campaign
module Schedule = Repro_fault.Schedule
module Monitor = Repro_fault.Monitor
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl
module Replay = Repro_replay.Replay

let with_temp_log f =
  let path = Filename.temp_file "test_replay" ".rlog" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let all_kinds = [ Replica.Modular; Replica.Indirect; Replica.Monolithic ]

let kind_name = Experiment.kind_name

(* ---- codec round-trip (qcheck) ---- *)

let field_gen =
  QCheck.Gen.(
    let base =
      oneof
        [
          map (fun b -> Snapshot.Bool b) bool;
          map (fun i -> Snapshot.Int i) int;
          map (fun i -> Snapshot.I64 (Int64.of_int i)) int;
          map (fun f -> Snapshot.Float f) float;
          map (fun s -> Snapshot.String s) string_printable;
        ]
    in
    oneof [ base; map (fun l -> Snapshot.List l) (list_size (int_bound 4) base) ])

let section_gen =
  QCheck.Gen.(
    map3
      (fun name fields data ->
        Snapshot.make ~name
          ~version:(1 + String.length name)
          ~data
          (List.mapi (fun i f -> (Printf.sprintf "k%d" i, f)) fields))
      string_printable
      (list_size (int_bound 8) field_gen)
      string)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"encode_sections/decode_sections round-trip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 5) section_gen))
    (fun sections ->
      let back = Snapshot.decode_sections (Snapshot.encode_sections sections) in
      List.length back = List.length sections
      && List.for_all2 Snapshot.equal_section sections back)

(* ---- recording is invisible: any cadence = the unrecorded engine ---- *)

let tiny_config kind =
  Experiment.config ~kind ~n:3 ~offered_load:400.0 ~size:512 ~warmup_s:0.3
    ~measure_s:0.7 ~seed:1 ()

let strip_snapshot_counters lines =
  List.filter
    (fun line ->
      not
        (List.exists
           (fun m ->
             let needle = Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\"" m in
             String.length line >= String.length needle
             && String.sub line 0 (String.length needle) = needle)
           Replay.snapshot_metrics))
    lines

let test_recording_invisible kind () =
  let obs1 = Obs.create () in
  let lat1, r1 = Experiment.run_raw ~obs:obs1 (tiny_config kind) in
  with_temp_log @@ fun path ->
  let obs2 = Obs.create () in
  let lat2, r2 =
    Replay.record_report ~obs:obs2 ~every_ns:100_000_000 ~path (tiny_config kind)
  in
  Alcotest.(check bool) "latency samples identical" true (lat1 = lat2);
  Alcotest.(check bool) "results identical" true (r1 = r2);
  Alcotest.(check bool)
    "metric lines identical modulo the snapshot counters" true
    (strip_snapshot_counters (Jsonl.metric_lines obs1)
    = strip_snapshot_counters (Jsonl.metric_lines obs2));
  Alcotest.(check bool)
    "span lines identical" true
    (Jsonl.span_lines obs1 = Jsonl.span_lines obs2)

(* ---- corrupt logs: every decode failure is a Replay_error naming the file ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [s] with [b] written over it at [pos]. *)
let overwrite s pos b =
  String.sub s 0 pos ^ b ^ String.sub s (pos + String.length b)
    (String.length s - pos - String.length b)

let find_sub s needle =
  let n = String.length needle in
  let rec scan i =
    if i + n > String.length s then Alcotest.failf "%S not found" needle
    else if String.equal (String.sub s i n) needle then i
    else scan (i + 1)
  in
  scan 0

let test_corrupt_logs () =
  with_temp_log @@ fun good ->
  let obs = Obs.create ~max_events:0 () in
  let _ = Replay.record_report ~obs ~every_ns:200_000_000 ~path:good (tiny_config Replica.Modular) in
  let src = read_file good in
  ignore (Replay.load good);
  let max_len =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int max_int);
    Bytes.to_string b
  in
  (* The log magic; the build digest's length field follows it. *)
  let header = String.length "REPRO-RLOG\x02" in
  (* The first frame's section encoding: its magic, then the section
     count, then the first section name's length field. *)
  let meta = find_sub src "REPRO-SNAP\x01" in
  let cases =
    [
      ("truncated", String.sub src 0 (String.length src / 2));
      ("garbage meta", overwrite src meta "NOT-A-SNAP!");
      ("overflowing length", overwrite src header max_len);
      ("overflowing section length", overwrite src (meta + 11 + 8) max_len);
    ]
  in
  List.iter
    (fun (what, bytes) ->
      with_temp_log @@ fun path ->
      write_file path bytes;
      match Replay.load path with
      | _ -> Alcotest.failf "%s log was accepted" what
      | exception Replay.Replay_error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error names the file (%s)" what m)
          true
          (String.length m > String.length path
          && String.equal (String.sub m 0 (String.length path)) path)
      | exception e -> Alcotest.failf "%s log raised %s" what (Printexc.to_string e))
    cases

(* ---- observational equivalence: every frame's suffix reproduces ---- *)

let check_verify log =
  match Replay.verify log with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "replay diverged at frame %d, stream %s: %s" d.Replay.d_frame
      d.Replay.d_stream d.Replay.d_detail

let test_verify_report kind () =
  with_temp_log @@ fun path ->
  let obs = Obs.create () in
  let _ = Replay.record_report ~obs ~every_ns:200_000_000 ~path (tiny_config kind) in
  let log = Replay.load path in
  Alcotest.(check bool) "several frames recorded" true (Replay.frame_count log >= 5);
  check_verify log

(* An armed message adversary on top: drops, corruption, duplication and
   reordering all resume through the frames' world blobs. *)
let adversary_schedule n =
  Campaign.random_schedule ~adversary:true (Rng.create ~seed:11) ~n
    ~horizon:(Time.span_s 1)

let test_verify_nemesis kind () =
  let schedule = adversary_schedule 3 in
  with_temp_log @@ fun path ->
  let obs = Obs.create ~max_events:5_000 () in
  let v =
    Replay.record_nemesis ~obs ~kind ~n:3 ~seed:5 ~schedule ~offered_load:400.0
      ~settle_s:0.5 ~every_ns:300_000_000 ~path ()
  in
  let v' =
    Campaign.run_one ~kind ~n:3 ~seed:5 ~schedule ~offered_load:400.0 ~settle_s:0.5 ()
  in
  Alcotest.(check string)
    "recorded verdict equals the plain run_one"
    (Campaign.verdict_line v') (Campaign.verdict_line v);
  check_verify (Replay.load path)

(* ---- bisect: localize a real violation to one inter-frame window ---- *)

let steward_partition_plan =
  "at 300ms partition p1 | p2 p3 p4 p5\nat 1800ms heal-all\n"

let test_bisect_localizes () =
  let schedule =
    match Schedule.of_string steward_partition_plan with
    | Ok s -> s
    | Error e -> Alcotest.failf "plan did not parse: %s" e
  in
  with_temp_log @@ fun path ->
  (* The CLI's recording cap: large enough that spans inside the
     violation window are still retained. *)
  let obs = Obs.create ~max_events:20_000 () in
  let v =
    Replay.record_nemesis ~obs ~kind:Replica.Monolithic ~n:5 ~seed:3 ~schedule
      ~offered_load:600.0 ~settle_s:0.5 ~every_ns:250_000_000 ~path ()
  in
  (match v.Campaign.outcome with
  | Campaign.Fail _ -> ()
  | Campaign.Pass -> Alcotest.fail "the steward-partition reproducer must fail");
  let log = Replay.load path in
  match Replay.bisect log with
  | None -> Alcotest.fail "bisect found no violation in a failing run"
  | Some r ->
    Alcotest.(check string) "invariant" "total-order" r.Replay.b_invariant;
    Alcotest.(check (option int))
      "the window is a single inter-frame step"
      (Some (r.Replay.b_from_frame + 1))
      r.Replay.b_to_frame;
    Alcotest.(check bool)
      "the violation time lies inside the window" true
      (r.Replay.b_at_ms > r.Replay.b_from_ms && r.Replay.b_at_ms <= r.Replay.b_to_ms);
    Alcotest.(check bool) "non-empty state diff" true (r.Replay.b_diff <> []);
    let monitor_diff =
      List.find_opt
        (fun (d : Snapshot.section_diff) -> d.Snapshot.section = "fault.monitor")
        r.Replay.b_diff
    in
    Alcotest.(check bool)
      "the monitor's violation counter flips inside the window" true
      (match monitor_diff with
      | Some d ->
        List.exists (fun (c : Snapshot.field_diff) -> c.Snapshot.key = "violations") d.Snapshot.changed
      | None -> false);
    Alcotest.(check bool)
      "report lines render" true
      (List.length (Replay.bisect_report_lines r) > List.length r.Replay.b_diff);
    let in_window line =
      match Jsonl.parse line with
      | Error _ -> false
      | Ok j -> (
        Jsonl.(to_string_opt (member "type" j)) = Some "span"
        &&
        match Jsonl.(to_int_opt (member "at_ns" j)) with
        | Some at ->
          let at_ms = float_of_int at /. 1e6 in
          at_ms > r.Replay.b_from_ms && at_ms <= r.Replay.b_to_ms
        | None -> false)
    in
    Alcotest.(check bool)
      "window lines are spans inside (from, to]" true
      (r.Replay.b_window_spans <> [] && List.for_all in_window r.Replay.b_window_spans)

(* A passing run has nothing to bisect. *)
let test_bisect_clean_run () =
  let schedule =
    match Schedule.of_string "at 100ms crash p3\n" with
    | Ok s -> s
    | Error e -> Alcotest.failf "plan did not parse: %s" e
  in
  with_temp_log @@ fun path ->
  let v =
    Replay.record_nemesis ~kind:Replica.Modular ~n:3 ~seed:1 ~schedule
      ~offered_load:300.0 ~settle_s:0.5 ~every_ns:200_000_000 ~path ()
  in
  (match v.Campaign.outcome with
  | Campaign.Pass -> ()
  | Campaign.Fail _ -> Alcotest.fail "minority crash must pass");
  Alcotest.(check bool)
    "nothing to bisect" true
    (Replay.bisect (Replay.load path) = None)

let per_kind mk =
  List.map (fun kind -> mk kind (kind_name kind)) all_kinds

let () =
  Alcotest.run "replay"
    [
      ( "codec",
        [ QCheck_alcotest.to_alcotest prop_codec_roundtrip ] );
      ( "load",
        [ Alcotest.test_case "corrupt logs are rejected by name" `Quick test_corrupt_logs ] );
      ( "equivalence",
        per_kind (fun kind tag ->
            Alcotest.test_case
              (tag ^ ": recording is invisible") `Quick
              (test_recording_invisible kind))
        @ per_kind (fun kind tag ->
              Alcotest.test_case
                (tag ^ ": every frame verifies (report)") `Slow
                (test_verify_report kind))
        @ per_kind (fun kind tag ->
              Alcotest.test_case
                (tag ^ ": every frame verifies (adversary nemesis)") `Slow
                (test_verify_nemesis kind)) );
      ( "bisect",
        [
          Alcotest.test_case "localizes the steward-partition violation" `Slow
            test_bisect_localizes;
          Alcotest.test_case "clean run has nothing to bisect" `Quick
            test_bisect_clean_run;
        ] );
    ]
