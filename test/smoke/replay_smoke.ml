(* The @replay-smoke alias: end-to-end check of the time-travel tooling
   through the public CLI. Records a monitored nemesis run and a report
   run as frame logs, lists/replays/verifies them, bisects both a passing
   log (nothing to bisect) and a misused one (report logs carry no
   monitor), converts a span trace to Chrome Trace Event Format, and
   checks that half-specified snapshot flags and corrupt frame logs
   (including a corrupt world blob) are rejected with an error, not a
   crash. Wired into `dune runtest`. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("replay-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let command ?(stdout = "/dev/null") ?(stderr = "/dev/null") bin args =
  let cmd = String.concat " " (List.map Filename.quote (bin :: args)) in
  Sys.command (cmd ^ " > " ^ Filename.quote stdout ^ " 2> " ^ Filename.quote stderr)

let run_cli ?stdout bin args =
  let code = command ?stdout bin args in
  if code <> 0 then
    fail "%s exited with %d" (String.concat " " (bin :: args)) code

(* Cmdliner exits 125 on an uncaught exception: a crash, not a rejection. *)
let expect_rejection ?stderr bin args ~what =
  let code = command ?stderr bin args in
  if code = 0 then fail "%s was accepted (exit 0), expected a rejection" what;
  if code = 125 then fail "%s crashed (exit 125, uncaught exception)" what

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let () =
  let bin = if Array.length Sys.argv > 1 then Sys.argv.(1) else "repro" in
  let tmp = Filename.temp_file "replay_smoke" "" in
  Sys.remove tmp;
  let plan = tmp ^ ".plan" in
  let nem_log = tmp ^ ".nem.rlog" and rep_log = tmp ^ ".rep.rlog" in
  let trace = tmp ^ ".trace.jsonl" and chrome = tmp ^ ".chrome.json" in
  let out = tmp ^ ".out" in

  (* Record a passing monitored run as a frame log. *)
  write_file plan
    "at 100ms crash p3\nat 400ms duplicate 0.05\nat 600ms duplicate 0\n";
  run_cli bin
    [
      "nemesis"; "--fault-plan"; plan; "--stack"; "modular"; "-n"; "3"; "--seed";
      "1"; "--load"; "300"; "--settle"; "0.5"; "--snapshot-every"; "100";
      "--snapshot-out"; nem_log;
    ];

  (* List the frames, resume from one, and self-verify every frame. *)
  run_cli ~stdout:out bin [ "replay"; nem_log; "--list" ];
  let listing = read_file out in
  if not (contains ~needle:"frame   0 at" listing) then
    fail "replay --list shows no frame 0:\n%s" listing;
  if not (contains ~needle:"\"mode\":\"nemesis\"" listing) then
    fail "replay --list shows no descriptor:\n%s" listing;
  run_cli ~stdout:out bin [ "replay"; nem_log; "--frame"; "2" ];
  if not (contains ~needle:"\"type\":\"verdict\"" (read_file out)) then
    fail "replay --frame 2 printed no verdict: %s" (read_file out);
  run_cli ~stdout:out bin [ "replay"; nem_log; "--verify" ];
  if not (contains ~needle:"byte-identical" (read_file out)) then
    fail "replay --verify did not report byte-identical frames: %s" (read_file out);

  (* A passing log has nothing to bisect — and says so. *)
  run_cli ~stdout:out bin [ "bisect"; nem_log ];
  if not (contains ~needle:"nothing to bisect" (read_file out)) then
    fail "bisect on a passing log: %s" (read_file out);

  (* Record a report run with a span trace; verify and export it. *)
  run_cli bin
    [
      "run"; "--stack"; "monolithic"; "-n"; "3"; "--load"; "300"; "--size";
      "512"; "--warmup"; "0.2"; "--measure"; "0.4"; "--trace-out"; trace;
      "--snapshot-every"; "100"; "--snapshot-out"; rep_log;
    ];
  run_cli ~stdout:out bin [ "replay"; rep_log; "--verify" ];
  if not (contains ~needle:"byte-identical" (read_file out)) then
    fail "report replay --verify: %s" (read_file out);
  run_cli bin [ "trace-export"; "--trace"; trace; "--chrome-out"; chrome ];
  let exported = read_file chrome in
  if not (contains ~needle:"\"traceEvents\"" exported) then
    fail "chrome export has no traceEvents array";
  if not (contains ~needle:"\"ph\":\"X\"" exported) then
    fail "chrome export has no complete (X) span events";

  (* Misuse is rejected up front. *)
  expect_rejection bin
    [ "run"; "--snapshot-every"; "5"; "--warmup"; "0.1"; "--measure"; "0.1" ]
    ~what:"--snapshot-every without --snapshot-out";
  expect_rejection bin
    [ "run"; "--snapshot-out"; tmp ^ ".x.rlog"; "--warmup"; "0.1"; "--measure"; "0.1" ]
    ~what:"--snapshot-out without --snapshot-every";
  expect_rejection bin [ "bisect"; rep_log ] ~what:"bisect on an unmonitored report log";
  expect_rejection bin [ "replay"; rep_log; "--frame"; "9999" ]
    ~what:"replay from an out-of-range frame";

  (* Corrupt logs: a truncated one, and one whose first frame's section
     encoding has its magic defaced. Each is an error naming the file. *)
  let bad_log = tmp ^ ".bad.rlog" and err = tmp ^ ".err" in
  let log = read_file rep_log in
  let defaced =
    let magic = "REPRO-SNAP\x01" in
    let n = String.length magic in
    let rec at i =
      if i + n > String.length log then fail "no section encoding in %s" rep_log
      else if String.sub log i n = magic then i
      else at (i + 1)
    in
    let i = at 0 in
    String.sub log 0 i ^ String.make n 'X' ^ String.sub log (i + n) (String.length log - i - n)
  in
  List.iter
    (fun (what, bytes) ->
      write_file bad_log bytes;
      expect_rejection ~stderr:err bin [ "replay"; bad_log; "--list" ] ~what;
      if not (contains ~needle:bad_log (read_file err)) then
        fail "%s: the error does not name the file: %s" what (read_file err))
    [
      ("a truncated log", String.sub log 0 (String.length log / 2));
      ("a log with corrupt frame metadata", defaced);
    ];

  (* A log whose first frame's world blob has bytes flipped in its
     middle: resuming from that frame must be refused, naming the file,
     before anything is unmarshalled. The offsets follow the log layout:
     magic, build digest, descriptor and interval, then each frame record
     as tag, index, time, metadata and blob. *)
  let corrupt_blob =
    let int_at i = Int64.to_int (String.get_int64_le log i) in
    let after_str i = i + 8 + int_at i in
    let frame = after_str (after_str (String.length "REPRO-RLOG\x02")) + 8 in
    if log.[frame] <> 'F' then fail "no frame record at byte %d of %s" frame rep_log;
    let blob = after_str (frame + 17) in
    let mid = blob + 8 + (int_at blob / 2) in
    String.mapi
      (fun i c -> if i >= mid && i < mid + 64 then Char.chr (Char.code c lxor 0xff) else c)
      log
  in
  write_file bad_log corrupt_blob;
  expect_rejection ~stderr:err bin [ "replay"; bad_log; "--frame"; "0" ]
    ~what:"a log with a corrupt world blob";
  if not (contains ~needle:bad_log (read_file err)) then
    fail "a corrupt world blob: the error does not name the file: %s" (read_file err);

  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ plan; nem_log; rep_log; trace; chrome; out; bad_log; err ];
  print_endline "replay-smoke: OK"
