(* Tests for the observability layer (lib/obs): histogram bucketing,
   percentile summaries, JSONL round-trips, and — the property everything
   else depends on — that observing a run changes nothing about it. *)

open Repro_sim
open Repro_core
module Obs = Repro_obs.Obs
module Histogram = Repro_obs.Histogram
module Jsonl = Repro_obs.Jsonl
module Stats = Repro_obs.Stats

(* ---- Histogram ---- *)

let test_histogram_buckets () =
  let h = Histogram.create ~edges:[| 1.0; 2.0; 5.0 |] () in
  List.iter (Histogram.observe h) [ 0.5; 1.0; 1.5; 3.0; 7.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  (* A value lands in the first bucket with v <= edge; beyond the last
     edge is the overflow bucket. 1.0 is on the edge: first bucket. *)
  let expected = [ (Some 1.0, 2); (Some 2.0, 1); (Some 5.0, 1); (None, 1) ] in
  Alcotest.(check (list (pair (option (float 1e-9)) int)))
    "per-bucket counts" expected (Histogram.buckets h)

let test_histogram_bad_edges () =
  Alcotest.check_raises "non-increasing edges rejected"
    (Invalid_argument "Histogram.create: edges must be strictly increasing")
    (fun () -> ignore (Histogram.create ~edges:[| 1.0; 1.0 |] ()))

let test_default_edges_ascending () =
  let e = Histogram.default_edges in
  Alcotest.(check bool) "at least a few buckets" true (Array.length e > 4);
  for i = 1 to Array.length e - 1 do
    Alcotest.(check bool) "strictly increasing" true (e.(i) > e.(i - 1))
  done

let test_histogram_summary () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  let s = Histogram.summary h in
  Alcotest.(check int) "count" 100 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Stats.mean;
  (* Exact percentiles over the retained samples, not bucket edges. *)
  Alcotest.(check (float 1e-9)) "p50" 50.5 s.Stats.p50;
  Alcotest.(check (float 1e-6)) "p95" 95.05 s.Stats.p95;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Stats.max

(* ---- Sink basics ---- *)

let test_counters_and_gauges () =
  let obs = Obs.create () in
  Obs.incr obs "a.x";
  Obs.incr obs ~by:41 "a.x";
  Obs.incr obs "b.y";
  Obs.set_gauge obs "g" 1.5;
  Obs.set_gauge obs "g" 2.5;
  Alcotest.(check int) "counter accumulates" 42 (Obs.counter_value obs "a.x");
  Alcotest.(check int) "unknown counter is 0" 0 (Obs.counter_value obs "nope");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a.x", 42); ("b.y", 1) ]
    (Obs.counters obs);
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.5)
    (Obs.gauge_value obs "g")

let test_noop_records_nothing () =
  Alcotest.(check bool) "noop disabled" false (Obs.enabled Obs.noop);
  Obs.incr Obs.noop "a";
  Obs.set_gauge Obs.noop "g" 1.0;
  Obs.observe Obs.noop "h" 1.0;
  Alcotest.(check int) "span id" Obs.Span.no_parent
    (Obs.span Obs.noop ~pid:0 ~layer:`Net ~phase:"tx" ());
  Alcotest.(check int) "no counter" 0 (Obs.counter_value Obs.noop "a");
  Alcotest.(check (option (float 0.))) "no gauge" None (Obs.gauge_value Obs.noop "g");
  Alcotest.(check int) "no spans" 0 (Obs.span_count Obs.noop)

(* ---- JSONL round-trip ---- *)

let str_field name j = Jsonl.(to_string_opt (member name j))
let int_field name j = Jsonl.(to_int_opt (member name j))

let make_populated_obs () =
  let obs = Obs.create () in
  Obs.incr obs ~by:7 "net.msgs.consensus";
  Obs.set_gauge obs "run.throughput" 123.5;
  Obs.observe obs "abcast.e2e_ms" 1.25;
  Obs.observe obs "abcast.e2e_ms" 9999.0;
  obs

let test_jsonl_metrics_roundtrip () =
  let obs = make_populated_obs () in
  let lines = Jsonl.metric_lines ~tags:[ ("stack", "modular") ] obs in
  Alcotest.(check int) "one line per metric" 3 (List.length lines);
  let parsed =
    match Jsonl.parse_lines (String.concat "\n" lines) with
    | Ok l -> l
    | Error e -> Alcotest.failf "unparsable metrics JSONL: %s" e
  in
  let find ty name =
    match
      List.find_opt
        (fun j -> str_field "type" j = Some ty && str_field "name" j = Some name)
        parsed
    with
    | Some j -> j
    | None -> Alcotest.failf "no %s line for %s" ty name
  in
  let c = find "counter" "net.msgs.consensus" in
  Alcotest.(check (option int)) "counter value" (Some 7) (int_field "value" c);
  Alcotest.(check (option string)) "tag on every line" (Some "modular")
    (str_field "stack" c);
  let h = find "histogram" "abcast.e2e_ms" in
  Alcotest.(check (option int)) "histogram count" (Some 2) (int_field "count" h);
  (match Jsonl.member "buckets" h with
  | Some (Jsonl.List buckets) ->
    (* Per-bucket [edge, count] pairs; the overflow bucket has a null edge
       and holds the out-of-range sample. *)
    (match List.rev buckets with
    | Jsonl.List [ Jsonl.Null; Jsonl.Int overflow ] :: _ ->
      Alcotest.(check int) "overflow bucket count" 1 overflow
    | _ -> Alcotest.fail "last bucket is not [null, count]")
  | _ -> Alcotest.fail "histogram line has no buckets array");
  match find "gauge" "run.throughput" with
  | g ->
    Alcotest.(check (option (float 1e-9))) "gauge value" (Some 123.5)
      Jsonl.(to_float_opt (member "value" g))

let test_jsonl_parse_errors () =
  (match Jsonl.parse "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  match Jsonl.parse_lines "{\"a\":1}\nnot json\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad line accepted"

(* An error names the line's position in the input, blank lines counted. *)
let test_jsonl_error_lines () =
  let line_of text =
    match Jsonl.parse_lines text with
    | Ok _ -> Alcotest.failf "%S accepted" text
    | Error e -> Scanf.sscanf e "line %d:" Fun.id
  in
  Alcotest.(check int) "first line" 1 (line_of "garbage");
  Alcotest.(check int) "after a blank line" 3 (line_of "{}\n\ngarbage")

(* ---- Renderer oracle ----

   The tree-concatenating renderer [Jsonl.to_string] had before it wrote
   into a buffer, kept here as the reference: the buffer renderer must
   produce its bytes exactly. *)

let ref_escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ref_float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec ref_to_string = function
  | Jsonl.Null -> "null"
  | Jsonl.Bool b -> if b then "true" else "false"
  | Jsonl.Int i -> string_of_int i
  | Jsonl.Float f -> ref_float_literal f
  | Jsonl.String s -> "\"" ^ ref_escape_string s ^ "\""
  | Jsonl.List items -> "[" ^ String.concat "," (List.map ref_to_string items) ^ "]"
  | Jsonl.Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ ref_escape_string k ^ "\":" ^ ref_to_string v) fields)
    ^ "}"

let gen_string =
  (* Every byte value, with the ones that need escaping drawn often. *)
  let special = QCheck.Gen.oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\255' ] in
  QCheck.Gen.(string_size ~gen:(frequency [ (3, char); (1, special) ]) (int_bound 12))

let gen_int =
  QCheck.Gen.(
    frequency
      [ (4, int); (2, int_range (-1000) 1000); (1, oneofl [ min_int; max_int; 0; -1; 9; 10 ]) ])

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, float);
        (2, map float_of_int (int_range (-100_000) 100_000));
        (1, map (fun f -> f *. 1e15) float);
        ( 1,
          oneofl
            [ 0.0; -0.0; 1e15; -1e15; 999_999_999_999_999.0; 1e300; -1e-300; 0.1; -2.5 ] );
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Jsonl.Null;
                 map (fun b -> Jsonl.Bool b) bool;
                 map (fun i -> Jsonl.Int i) gen_int;
                 map (fun f -> Jsonl.Float f) gen_float;
                 map (fun s -> Jsonl.String s) gen_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Jsonl.List l) (list_size (int_bound 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> Jsonl.Obj l)
                     (list_size (int_bound 4) (pair gen_string (self (n / 3)))) );
               ]))

let prop_renderer_matches_reference =
  QCheck.Test.make ~name:"to_string equals the tree renderer" ~count:2000
    (QCheck.make ~print:ref_to_string gen_json)
    (fun j -> Jsonl.to_string j = ref_to_string j)

let prop_ints_and_strings_roundtrip =
  QCheck.Test.make ~name:"parse (to_string j) round-trips ints and strings" ~count:2000
    (QCheck.make
       ~print:(fun (i, s) -> Printf.sprintf "%d %S" i s)
       QCheck.Gen.(pair gen_int gen_string))
    (fun (i, s) ->
      let j = Jsonl.List [ Jsonl.Int i; Jsonl.String s; Jsonl.Obj [ (s, Jsonl.Int i) ] ] in
      Jsonl.parse (Jsonl.to_string j) = Ok j)

(* ---- Export shape ----

   The file writers stream what [span_lines] and [metric_lines] return,
   one line each followed by a newline, truncation marker included. Tag
   values carry a quote and a backslash so the prefix escaping is on the
   compared path. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_of_lines lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let test_export_shape () =
  let tags = [ ("stack", "mod\"ular"); ("run", "a\\b") ] in
  let obs = Obs.create ~max_events:3 () in
  let clock = ref Time.zero in
  Obs.set_clock obs (fun () -> !clock);
  List.iteri
    (fun i detail ->
      clock := Time.of_ns (1000 * (i + 1));
      ignore (Obs.span obs ~pid:(i mod 3) ~layer:`Consensus ~phase:"propose" ~detail ()))
    [ "plain"; "quote \" and \\"; "tab\tnl\n"; "dropped"; "dropped too" ];
  Obs.incr obs ~by:7 "net.msgs.consensus";
  Obs.set_gauge obs "run.throughput" 123.5;
  Obs.observe obs "abcast.e2e_ms" 1.25;
  let spans = Jsonl.span_lines ~tags obs in
  Alcotest.(check int) "three spans and the marker" 4 (List.length spans);
  Alcotest.(check (list string))
    "span lines equal the tree renderer"
    (List.map
       (fun (s : Obs.Span.t) ->
         ref_to_string
           (Jsonl.Obj
              (List.map (fun (k, v) -> (k, Jsonl.String v)) tags
              @ [
                  ("type", Jsonl.String "span");
                  ("sid", Jsonl.Int s.Obs.Span.sid);
                  ("parent", Jsonl.Int s.Obs.Span.parent);
                  ("at_ns", Jsonl.Int (Time.to_ns s.Obs.Span.at));
                  ("pid", Jsonl.Int s.Obs.Span.pid);
                  ("layer", Jsonl.String (Obs.Span.layer_name s.Obs.Span.layer));
                  ("phase", Jsonl.String s.Obs.Span.phase);
                  ("detail", Jsonl.String s.Obs.Span.detail);
                ])))
       (Obs.spans obs))
    (List.filteri (fun i _ -> i < 3) spans);
  Alcotest.(check string) "truncation marker"
    "{\"stack\":\"mod\\\"ular\",\"run\":\"a\\\\b\",\"type\":\"trace_truncated\",\"stream\":\"spans\",\"dropped\":2}"
    (List.nth spans 3);
  let trace = Filename.temp_file "test_obs" "_trace.jsonl"
  and metrics = Filename.temp_file "test_obs" "_metrics.jsonl" in
  Jsonl.write_trace_file ~tags trace obs;
  Jsonl.write_metrics_file ~tags metrics obs;
  Alcotest.(check string) "trace file = span_lines" (file_of_lines spans) (read_file trace);
  Alcotest.(check string) "metrics file = metric_lines"
    (file_of_lines (Jsonl.metric_lines ~tags obs))
    (read_file metrics);
  List.iter Sys.remove [ trace; metrics ]

(* ---- Observation does not perturb the run ---- *)

(* The whole design contract (DESIGN.md §7): an instrumented run must have
   the identical virtual-time history to an uninstrumented one. Run the
   same modular group twice, once observed, and compare everything the
   simulation exposes. *)
let run_modular ~obs =
  let params = Params.default ~n:3 in
  let group = Group.create ~kind:Replica.Modular ~params ~obs () in
  for i = 0 to 9 do
    Group.abcast group (i mod 3) ~size:(256 * (i + 1))
  done;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  group

let test_noop_sink_changes_nothing () =
  let plain = run_modular ~obs:Obs.noop in
  let obs = Obs.create () in
  let observed = run_modular ~obs in
  let ids g =
    List.concat_map
      (fun p ->
        List.map
          (fun (id : App_msg.id) -> (id.App_msg.origin, id.App_msg.seq))
          (Group.deliveries g p))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list (pair int int)))
    "same delivery order at every process" (ids plain) (ids observed);
  let final g = Time.to_ns (Engine.now (Group.engine g)) in
  Alcotest.(check int) "same final virtual time" (final plain) (final observed);
  let wire g = (Repro_net.Net_stats.snapshot (Group.stats g)).Repro_net.Net_stats.messages in
  Alcotest.(check int) "same wire traffic" (wire plain) (wire observed);
  let lat g =
    List.map
      (fun (r : Group.latency_record) ->
        ((r.Group.id.App_msg.origin, r.Group.id.App_msg.seq),
         Time.to_ns r.Group.first_delivery))
      (Group.latencies g)
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "same latency records" (lat plain) (lat observed);
  (* And the observation itself saw the run: per-layer traffic matches the
     Net_stats total, and decisions were recorded for every instance. *)
  let by_layer =
    List.fold_left
      (fun acc l -> acc + Obs.counter_value obs ("net.msgs." ^ Obs.layer_name l))
      0 Obs.all_layers
  in
  Alcotest.(check int) "layer counters partition the wire total" (wire observed)
    by_layer;
  Alcotest.(check bool) "decisions recorded" true
    (Obs.counter_value obs "consensus.decisions" > 0);
  Alcotest.(check bool) "trace non-empty" true (Obs.span_count obs > 0)

(* The analytical cross-check of the ISSUE: per-layer counts of a
   deterministic n=3 modular run against Analysis.Model, layer by layer. *)
let test_layer_counts_match_model () =
  let obs = Obs.create () in
  let params = Params.default ~n:3 in
  let group = Group.create ~kind:Replica.Modular ~params ~obs () in
  Group.abcast group 0 ~size:1024;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  (* One instance, M = 1: every process decided it exactly once. *)
  Alcotest.(check int) "3 decisions = 1 instance" 3
    (Obs.counter_value obs "consensus.decisions");
  List.iter
    (fun (layer, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "net.msgs.%s" layer)
        expected
        (Obs.counter_value obs ("net.msgs." ^ layer)))
    (Repro_analysis.Model.modular_layer_messages ~n:3 ~m:1);
  let total =
    List.fold_left
      (fun acc (l, _) -> acc + Obs.counter_value obs ("net.msgs." ^ l))
      0
      (Repro_analysis.Model.modular_layer_messages ~n:3 ~m:1)
  in
  Alcotest.(check int) "sum = modular_messages"
    (Repro_analysis.Model.modular_messages ~n:3 ~m:1)
    total

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_buckets;
          Alcotest.test_case "bad edges rejected" `Quick test_histogram_bad_edges;
          Alcotest.test_case "default edges ascending" `Quick
            test_default_edges_ascending;
          Alcotest.test_case "percentile summary" `Quick test_histogram_summary;
        ] );
      ( "sink",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "noop records nothing" `Quick test_noop_records_nothing;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "metrics round-trip" `Quick test_jsonl_metrics_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_jsonl_parse_errors;
          Alcotest.test_case "error line numbers" `Quick test_jsonl_error_lines;
          QCheck_alcotest.to_alcotest prop_renderer_matches_reference;
          QCheck_alcotest.to_alcotest prop_ints_and_strings_roundtrip;
          Alcotest.test_case "export shape" `Quick test_export_shape;
        ] );
      ( "non-perturbation",
        [
          Alcotest.test_case "noop sink changes nothing" `Quick
            test_noop_sink_changes_nothing;
          Alcotest.test_case "layer counts match Model" `Quick
            test_layer_counts_match_model;
        ] );
    ]
