(* The @obs-smoke alias: end-to-end check of the observability pipeline
   through the public CLI. Runs a tiny modular and monolithic experiment
   with --metrics-out/--trace-out, fails if the JSONL is empty or
   unparsable, and cross-checks the per-layer message counts against the
   closed forms of Analysis.Model (§5.2.1). Then pins the exported bytes:
   one run per stack, plus one lossy modular run, must reproduce the MD5
   digests committed in obs_golden.txt for its stdout, trace, metrics and
   Chrome export, and
   `repro critical-path --pid=-1` on its trace must report the
   abcast.e2e_ms histogram's delivery count and mean.
   Wired into `dune runtest`. *)

module Jsonl = Repro_obs.Jsonl
module Model = Repro_analysis.Model

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("obs-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_cli ?(stdout = "/dev/null") bin args =
  let cmd = String.concat " " (List.map Filename.quote (bin :: args)) in
  let code = Sys.command (cmd ^ " > " ^ Filename.quote stdout) in
  if code <> 0 then fail "%s exited with %d" cmd code

let parse_file what path =
  let contents = read_file path in
  if String.trim contents = "" then fail "%s JSONL is empty (%s)" what path;
  match Jsonl.parse_lines contents with
  | Ok [] -> fail "%s JSONL has no lines (%s)" what path
  | Ok lines -> lines
  | Error e -> fail "%s JSONL unparsable: %s" what e

let str_field name j = Jsonl.(to_string_opt (member name j))

let counter lines name =
  match
    List.find_opt
      (fun j ->
        str_field "type" j = Some "counter" && str_field "name" j = Some name)
      lines
  with
  | Some j -> (
    match Jsonl.(to_int_opt (member "value" j)) with
    | Some v -> v
    | None -> fail "counter %s has a non-integer value" name)
  | None -> fail "no counter %s in the metrics" name

let gauge lines name =
  match
    List.find_opt
      (fun j -> str_field "type" j = Some "gauge" && str_field "name" j = Some name)
      lines
  with
  | Some j -> (
    match Jsonl.(to_float_opt (member "value" j)) with
    | Some v -> v
    | None -> fail "gauge %s has a non-numeric value" name)
  | None -> fail "no gauge %s in the metrics" name

(* [((stack, output), md5)] pairs, one per non-comment line. *)
let read_golden path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "" && line.[0] <> '#')
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ stack; output; md5 ] -> ((stack, output), md5)
         | _ -> fail "bad golden line %S" line)

let histogram lines name =
  match
    List.find_opt
      (fun j -> str_field "type" j = Some "histogram" && str_field "name" j = Some name)
      lines
  with
  | Some j -> (
    match Jsonl.(to_int_opt (member "count" j), to_float_opt (member "mean" j)) with
    | Some count, Some mean -> (count, mean)
    | _ -> fail "histogram %s lacks count or mean" name)
  | None -> fail "no histogram %s in the metrics" name

(* The critical path cuts each delivery at its own publish, so pooled
   over all processes it covers exactly the deliveries abcast.e2e_ms
   measured, with the same mean. *)
let check_critical_path bin stack ~trace ~metrics =
  let out = Filename.temp_file ("obs_cp_" ^ stack) ".txt" in
  run_cli ~stdout:out bin [ "critical-path"; "--pid=-1"; trace ];
  let header = List.hd (String.split_on_char '\n' (read_file out)) in
  Sys.remove out;
  let count, mean = histogram (parse_file "metrics" metrics) "abcast.e2e_ms" in
  let want = Printf.sprintf "%d deliveries, mean end-to-end %.6f ms" count mean in
  if header <> want then
    fail "%s critical-path says %S, abcast.e2e_ms says %S" stack header want

(* [(label, stack, extra flags)]: the label keys obs_golden.txt. The lossy
   run is the only one that records retransmit and drop spans. *)
let golden_runs =
  [
    ("modular", "modular", []); ("monolithic", "monolithic", []);
    ("indirect", "indirect", []); ("modular-lossy", "modular", [ "--loss"; "0.05" ]);
  ]

let check_golden bin golden =
  List.iter
    (fun (label, stack, extra) ->
      let tmp suffix = Filename.temp_file ("obs_golden_" ^ label) suffix in
      let outputs =
        [
          ("stdout", tmp ".txt"); ("trace", tmp "_trace.jsonl");
          ("metrics", tmp "_metrics.jsonl"); ("chrome", tmp "_chrome.json");
        ]
      in
      let file o = List.assoc o outputs in
      run_cli ~stdout:(file "stdout") bin
        ([
           "run"; "--stack"; stack; "-n"; "3"; "--load"; "1000"; "--warmup"; "0.5";
           "--measure"; "1"; "--trace-out"; file "trace"; "--metrics-out"; file "metrics";
         ]
        @ extra);
      run_cli bin [ "trace-export"; "--trace"; file "trace"; "--chrome-out"; file "chrome" ];
      check_critical_path bin label ~trace:(file "trace") ~metrics:(file "metrics");
      List.iter
        (fun (o, path) ->
          let want =
            match List.assoc_opt (label, o) golden with
            | Some md5 -> md5
            | None -> fail "obs_golden.txt has no %s %s digest" label o
          in
          let got = Digest.to_hex (Digest.file path) in
          if got <> want then fail "%s %s bytes changed: md5 %s, golden %s" label o got want;
          Sys.remove path)
        outputs)
    golden_runs

let () =
  let bin, golden =
    match Sys.argv with
    | [| _; bin; golden |] -> (bin, read_golden golden)
    | _ -> fail "usage: obs_smoke <path-to-repro-binary> <obs_golden.txt>"
  in
  let tmp suffix = Filename.temp_file "obs_smoke" suffix in
  let metrics_mod = tmp "_mod.jsonl"
  and trace_mod = tmp "_mod_trace.jsonl"
  and metrics_mono = tmp "_mono.jsonl" in

  (* Modular, unsaturated: M = 1 exactly, so the per-layer counters over
     the whole execution match Model.modular_layer_messages per instance
     with no tolerance. consensus.decisions counts each instance once per
     process, giving the instance count. *)
  run_cli bin
    [
      "run"; "--stack"; "modular"; "-n"; "3"; "--load"; "500"; "--size"; "1024";
      "--warmup"; "0.2"; "--measure"; "0.5"; "--metrics-out"; metrics_mod;
      "--trace-out"; trace_mod;
    ];
  let m = parse_file "modular metrics" metrics_mod in
  let instances =
    let d = counter m "consensus.decisions" in
    if d = 0 || d mod 3 <> 0 then fail "consensus.decisions = %d, not 3k" d;
    d / 3
  in
  List.iter
    (fun (layer, per_instance) ->
      let got = counter m ("net.msgs." ^ layer) in
      if got <> per_instance * instances then
        fail "net.msgs.%s = %d, model says %d x %d instances" layer got
          per_instance instances)
    (Model.modular_layer_messages ~n:3 ~m:1);
  let total =
    List.fold_left (fun acc (l, _) -> acc + counter m ("net.msgs." ^ l)) 0
      (Model.modular_layer_messages ~n:3 ~m:1)
  in
  if total <> Model.modular_messages ~n:3 ~m:1 * instances then
    fail "modular total %d <> modular_messages(3,1) x %d" total instances;

  (* Spans are the only per-step record: a decide span must be there, and
     no flat "trace" line may be. *)
  let t = parse_file "modular trace" trace_mod in
  if
    not
      (List.exists
         (fun j ->
           str_field "type" j = Some "span" && str_field "phase" j = Some "decide")
         t)
  then fail "trace has no decide span";
  if List.exists (fun j -> str_field "type" j = Some "trace") t then
    fail "trace has a flat \"type\":\"trace\" line";

  (* Monolithic, loaded enough that instances overlap (the closed form's
     steady-state assumption): the window-normalized gauge matches
     monolithic_messages = 2(n-1) = 4 within noise. *)
  run_cli bin
    [
      "run"; "--stack"; "monolithic"; "-n"; "3"; "--load"; "3000"; "--size";
      "1024"; "--warmup"; "0.5"; "--measure"; "1"; "--metrics-out"; metrics_mono;
    ];
  let mono = parse_file "monolithic metrics" metrics_mono in
  let per_instance = gauge mono "run.msgs_per_instance" in
  let expected = float_of_int (Model.monolithic_messages ~n:3) in
  if Float.abs (per_instance -. expected) > 0.2 then
    fail "monolithic msgs/instance %.3f, model says %.1f" per_instance expected;
  if counter mono "net.msgs.abcast" = 0 then
    fail "monolithic run recorded no abcast-layer traffic";

  List.iter Sys.remove [ metrics_mod; trace_mod; metrics_mono ];
  check_golden bin golden;
  print_endline
    "obs-smoke: OK (JSONL parsable, per-layer counts match Model, golden bytes match, \
     critical path = abcast.e2e_ms)"
