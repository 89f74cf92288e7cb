(* Tests for causal spans (Obs.Span), critical-path reconstruction
   (Analysis.Critical_path), and benchmark reports (Analysis.Bench_report).

   The load-bearing properties, per stack: a deterministic 3-process run
   produces a trace with no orphan parents; every application delivery
   terminates a chain rooted at an App/publish; and the critical-path
   segments telescope — their sum is exactly the measured end-to-end
   latency, so the breakdown accounts for every nanosecond. Under load
   the path is cut at the message's own publish, so over a whole run the
   critical-path mean equals the abcast.e2e_ms histogram's. *)

open Repro_sim
open Repro_core
module Obs = Repro_obs.Obs
module Span = Repro_obs.Span
module Jsonl = Repro_obs.Jsonl
module Cp = Repro_analysis.Critical_path
module Br = Repro_analysis.Bench_report
module Chrome_trace = Repro_analysis.Chrome_trace
module Schedule = Repro_fault.Schedule
module Experiment = Repro_workload.Experiment

let stacks =
  [
    ("modular", Replica.Modular);
    ("indirect", Replica.Indirect);
    ("monolithic", Replica.Monolithic);
  ]

let msgs = 10

let run_stack ~kind ~obs =
  let params = Params.default ~n:3 in
  let group = Group.create ~kind ~params ~obs () in
  for i = 0 to msgs - 1 do
    Group.abcast group (i mod 3) ~size:(256 * (i + 1))
  done;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  group

let traced kind =
  let obs = Obs.create () in
  ignore (run_stack ~kind ~obs);
  obs

(* ---- Trace walks: a sid index and root-first chains ---- *)

let index spans =
  let tbl = Hashtbl.create (max 16 (2 * List.length spans)) in
  List.iter (fun (s : Span.t) -> Hashtbl.replace tbl s.Span.sid s) spans;
  tbl

(* Walk the parent links from [s] to its root, oldest first. Ids are
   assigned in causal order, so a well-formed chain has strictly
   decreasing parents; the guard makes a corrupted trace terminate
   instead of looping. *)
let chain tbl (s : Span.t) =
  let rec up acc (s : Span.t) =
    if Span.is_root s then s :: acc
    else
      match Hashtbl.find_opt tbl s.Span.parent with
      | Some (p : Span.t) when p.Span.sid < s.Span.sid -> up (s :: acc) p
      | Some _ | None -> s :: acc
  in
  up [] s

(* Spans whose parent is neither a root marker nor in the trace. *)
let orphans spans =
  let tbl = index spans in
  List.filter
    (fun (s : Span.t) -> (not (Span.is_root s)) && not (Hashtbl.mem tbl s.Span.parent))
    spans

(* ---- Chain integrity ---- *)

let test_no_orphans (name, kind) () =
  let obs = traced kind in
  let spans = Obs.spans obs in
  Alcotest.(check bool) (name ^ ": spans recorded") true (List.length spans > 0);
  Alcotest.(check int) (name ^ ": nothing dropped") 0 (Obs.dropped_spans obs);
  Alcotest.(check (list int))
    (name ^ ": no span references a missing parent")
    []
    (List.map (fun (s : Span.t) -> s.Span.sid) (orphans spans))

let test_complete_chains (name, kind) () =
  let obs = traced kind in
  let spans = Obs.spans obs in
  let tbl = index spans in
  let deliveries = List.filter Cp.is_delivery spans in
  (* Every message is adelivered at each of the 3 processes. *)
  Alcotest.(check int) (name ^ ": one delivery span per message per process")
    (3 * msgs) (List.length deliveries);
  List.iter
    (fun (d : Span.t) ->
      let chain = chain tbl d in
      let root = List.hd chain in
      Alcotest.(check bool) (name ^ ": chain rooted (no truncation)") true
        (Span.is_root root);
      Alcotest.(check string) (name ^ ": root is an application publish")
        "app/publish"
        (Span.layer_name root.Span.layer ^ "/" ^ root.Span.phase);
      Alcotest.(check bool) (name ^ ": chain crosses module boundaries") true
        (List.length chain >= 4);
      (* A delivery at a process other than the publisher must have crossed
         the wire at least once. *)
      if d.Span.pid <> root.Span.pid then
        Alcotest.(check bool) (name ^ ": remote delivery crossed the wire") true
          (List.exists2
             (fun (a : Span.t) (b : Span.t) -> a.Span.pid <> b.Span.pid)
             (List.filteri (fun i _ -> i < List.length chain - 1) chain)
             (List.tl chain)))
    deliveries

(* "m 2/17 (1024 B)" and "m 2/17" name the same message. *)
let message_id (s : Span.t) =
  match String.split_on_char ' ' s.Span.detail with
  | "m" :: id :: _ -> id
  | _ -> Alcotest.failf "no message id in %a" Span.pp s

let test_telescoping (name, kind) () =
  let obs = traced kind in
  let spans = Obs.spans obs in
  let tbl = index spans in
  let paths = Cp.paths ~pid:0 spans in
  Alcotest.(check int) (name ^ ": one path per delivery at p1") msgs
    (List.length paths);
  List.iter
    (fun (p : Cp.path) ->
      let sum = List.fold_left (fun acc (s : Cp.segment) -> acc + s.Cp.ns) 0 p.Cp.segments in
      Alcotest.(check int) (name ^ ": segments sum to end-to-end latency")
        p.Cp.total_ns sum;
      let publish = Hashtbl.find tbl p.Cp.publish in
      Alcotest.(check string) (name ^ ": cut at the message's own publish")
        (message_id p.Cp.delivery) (message_id publish);
      Alcotest.(check int) (name ^ ": total is delivery - publish")
        (Time.to_ns p.Cp.delivery.Span.at - Time.to_ns publish.Span.at)
        p.Cp.total_ns)
    paths;
  (* And so does the aggregate: row totals sum to the summed latency. *)
  let b = Cp.breakdown paths in
  let row_sum = List.fold_left (fun acc (r : Cp.breakdown_row) -> acc +. r.Cp.total_ms) 0.0 b.Cp.rows in
  Alcotest.(check (float 1e-6)) (name ^ ": breakdown rows partition the total")
    b.Cp.end_to_end_ms row_sum

(* ---- Cut at the publish: a hand-built trace ---- *)

let span sid parent at_ns pid layer phase detail =
  { Span.sid; parent; at = Time.of_ns at_ns; pid; layer; phase; detail }

(* m 1/0's publish is parented to earlier work (sid 1), which its path
   must not include. m 1/1 is published while instance 0 is in flight
   and rides instance 1, proposed by instance 0's decision (sid 5): its
   chain straddles its publish between sids 3 (1500 ns) and 5 (4000
   ns), so the walk ends with [wait] = 4000 - 2000. m 2/5 has no
   publish and is skipped. *)
let synthetic =
  [
    span 1 0 500 0 `Consensus "decide" "i-1";
    span 2 1 1000 0 `App "publish" "m 1/0 (8 B)";
    span 3 2 1500 0 `Consensus "propose" "i0";
    span 4 0 2000 0 `App "publish" "m 1/1 (8 B)";
    span 5 3 4000 1 `Consensus "decide" "i0";
    span 6 5 4500 1 `App "adeliver" "m 1/0";
    span 7 5 5000 1 `Consensus "propose" "i1";
    span 8 7 7000 1 `Consensus "decide" "i1";
    span 9 8 7200 1 `App "adeliver" "m 1/1";
    span 10 8 7300 1 `App "adeliver" "m 2/5";
  ]

let segments (p : Cp.path) =
  List.map (fun (s : Cp.segment) -> (s.Cp.label, s.Cp.ns)) p.Cp.segments

let row_strings (b : Cp.breakdown) =
  List.map
    (fun (r : Cp.breakdown_row) ->
      Printf.sprintf "%s %s %d %h %h %h" r.Cp.row_label r.Cp.row_layer r.Cp.hops
        r.Cp.total_ms r.Cp.mean_ms r.Cp.share)
    b.Cp.rows

let test_synthetic_cut () =
  let seg = Alcotest.(list (pair string int)) in
  (match Cp.paths synthetic with
  | [ a; b ] ->
    Alcotest.(check int) "m 1/0 ends at its own publish" 2 a.Cp.publish;
    Alcotest.check seg "m 1/0 hops after its publish only"
      [ ("consensus/propose", 500); ("wire", 2500); ("app/adeliver", 500) ]
      (segments a);
    Alcotest.(check int) "m 1/1 is cut at its publish" 4 b.Cp.publish;
    Alcotest.check seg "the straddling hop is wait"
      [ ("wait", 2000); ("consensus/propose", 1000); ("consensus/decide", 2000);
        ("app/adeliver", 200) ]
      (segments b);
    Alcotest.(check int) "total is delivery - publish" 5200 b.Cp.total_ns
  | ps -> Alcotest.failf "expected 2 paths, got %d" (List.length ps));
  let b = Cp.of_spans synthetic in
  Alcotest.(check int) "two deliveries" 2 b.Cp.deliveries;
  Alcotest.(check int) "the publishless one skipped" 1 b.Cp.skipped;
  Alcotest.(check (float 0.)) "summed latency" 0.0087 b.Cp.end_to_end_ms;
  Alcotest.(check (list (pair string (float 0.))))
    "rows"
    [
      ("wire", 0.0025); ("consensus/decide", 0.002); ("wait", 0.002);
      ("consensus/propose", 0.0015); ("app/adeliver", 0.0007);
    ]
    (List.map (fun (r : Cp.breakdown_row) -> (r.Cp.row_label, r.Cp.total_ms)) b.Cp.rows);
  Alcotest.(check (list string)) "streamed rows equal the path-list rows"
    (row_strings (Cp.breakdown (Cp.paths synthetic)))
    (row_strings b);
  Alcotest.(check int) "no delivery at p1" 0 (Cp.of_spans ~pid:0 synthetic).Cp.deliveries

(* ---- The gate: critical path = measured latency, at any load ---- *)

let run_traced ~kind ~n ~load ~arrival =
  let obs = Obs.create () in
  ignore
    (Experiment.run ~obs
       (Experiment.config ~kind ~n ~offered_load:load ~size:1024 ~warmup_s:0.05
          ~measure_s:0.15 ~seed:1 ~arrival ()));
  obs

let test_gate (name, kind) () =
  List.iter
    (fun (n, load) ->
      let what = Printf.sprintf "%s n=%d %g/s" name n load in
      let obs = run_traced ~kind ~n ~load ~arrival:Repro_workload.Generator.Poisson in
      let e2e =
        match Obs.histogram_summary obs "abcast.e2e_ms" with
        | Some s -> s
        | None -> Alcotest.failf "%s: no abcast.e2e_ms histogram" what
      in
      let b = Cp.of_spans (Obs.spans obs) in
      Alcotest.(check int) (what ^ ": nothing skipped") 0 b.Cp.skipped;
      Alcotest.(check int) (what ^ ": one path per measured delivery")
        e2e.Repro_obs.Stats.count b.Cp.deliveries;
      let want = e2e.Repro_obs.Stats.mean in
      if Float.abs (b.Cp.mean_end_to_end_ms -. want) > 1e-9 *. want then
        Alcotest.failf "%s: critical-path mean %.9f ms, measured %.9f ms" what
          b.Cp.mean_end_to_end_ms want;
      let rows_ms = List.fold_left (fun a (r : Cp.breakdown_row) -> a +. r.Cp.total_ms) 0. b.Cp.rows in
      if Float.abs (rows_ms -. b.Cp.end_to_end_ms) > 1e-9 *. b.Cp.end_to_end_ms then
        Alcotest.failf "%s: rows sum to %.9f ms, paths to %.9f ms" what rows_ms
          b.Cp.end_to_end_ms;
      List.iter
        (fun (r : Cp.breakdown_row) ->
          if r.Cp.total_ms < 0. then
            Alcotest.failf "%s: %s row is negative (%.6f ms)" what r.Cp.row_label r.Cp.total_ms)
        b.Cp.rows)
    [ (3, 500.); (3, 1000.); (3, 2000.); (7, 500.); (7, 1000.); (7, 2000.) ]

(* ---- Oracle: the uncut walk agrees where chains end at their publish ---- *)

(* The previous algorithm: each delivery's whole single-parent chain,
   root to delivery, aggregated by hop label. Below saturation the root
   of every chain is the message's own publish, so the cut changes
   nothing there. *)
let uncut_rows ~pid spans =
  let tbl = index spans in
  let totals = Hashtbl.create 32 in
  let paths = ref 0 and sum_ns = ref 0 in
  List.iter
    (fun (d : Span.t) ->
      if Cp.is_delivery d && d.Span.pid = pid then begin
        let c = chain tbl d in
        incr paths;
        sum_ns := !sum_ns + Time.to_ns d.Span.at - Time.to_ns (List.hd c).Span.at;
        ignore
          (List.fold_left
             (fun (parent : Span.t) (child : Span.t) ->
               let label, layer =
                 if child.Span.pid <> parent.Span.pid then ("wire", "wire")
                 else
                   let layer = Span.layer_name child.Span.layer in
                   (layer ^ "/" ^ child.Span.phase, layer)
               in
               let hops, ns =
                 Option.value ~default:(0, 0) (Option.map fst (Hashtbl.find_opt totals label))
               in
               Hashtbl.replace totals label
                 ((hops + 1, ns + Time.to_ns child.Span.at - Time.to_ns parent.Span.at), layer);
               child)
             (List.hd c) (List.tl c))
      end)
    spans;
  let ms ns = float_of_int ns /. 1e6 in
  Hashtbl.fold
    (fun label ((hops, ns), layer) acc ->
      {
        Cp.row_label = label;
        row_layer = layer;
        hops;
        total_ms = ms ns;
        mean_ms = ms ns /. float_of_int !paths;
        share = float_of_int ns /. float_of_int !sum_ns;
      }
      :: acc)
    totals []
  |> List.sort (fun (a : Cp.breakdown_row) (b : Cp.breakdown_row) ->
         match compare b.Cp.total_ms a.Cp.total_ms with
         | 0 -> compare a.Cp.row_label b.Cp.row_label
         | c -> c)

let test_oracle (name, kind) () =
  (* bench's breakdown point: n=3, 500/s, uniform arrivals, pid 0. *)
  let obs = run_traced ~kind ~n:3 ~load:500. ~arrival:Repro_workload.Generator.Uniform in
  let spans = Obs.spans obs in
  let b = Cp.of_spans ~pid:0 spans in
  Alcotest.(check bool) (name ^ ": deliveries analysed") true (b.Cp.deliveries > 0);
  Alcotest.(check (list string)) (name ^ ": rows equal the uncut walk's")
    (row_strings { b with Cp.rows = uncut_rows ~pid:0 spans })
    (row_strings b)

(* ---- Instrumentation does not perturb the run ---- *)

let test_spans_do_not_perturb (name, kind) () =
  let plain = run_stack ~kind ~obs:Obs.noop in
  let obs = Obs.create () in
  let observed = run_stack ~kind ~obs in
  Alcotest.(check bool) (name ^ ": spans were recorded") true
    (Obs.span_count obs > 0);
  let ids g =
    List.concat_map
      (fun p ->
        List.map
          (fun (id : App_msg.id) -> (id.App_msg.origin, id.App_msg.seq))
          (Group.deliveries g p))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list (pair int int)))
    (name ^ ": same delivery order at every process")
    (ids plain) (ids observed);
  Alcotest.(check int) (name ^ ": same final virtual time")
    (Time.to_ns (Engine.now (Group.engine plain)))
    (Time.to_ns (Engine.now (Group.engine observed)))

(* ---- Spans that end a chain: fault steps and checksum drops ---- *)

(* Sids on the causal chain of any application delivery. *)
let delivery_ancestors spans =
  let tbl = index spans in
  List.concat_map
    (fun d -> List.map (fun (s : Span.t) -> s.Span.sid) (chain tbl d))
    (List.filter Cp.is_delivery spans)

let check_off_delivery_chains what spans ends =
  let on_chain = delivery_ancestors spans in
  Alcotest.(check (list int)) (what ^ " never lead to a delivery") []
    (List.filter_map
       (fun (s : Span.t) -> if List.mem s.Span.sid on_chain then Some s.Span.sid else None)
       ends)

let test_fault_spans () =
  let obs = Obs.create () in
  let params = Params.default ~n:3 in
  let group = Group.create ~kind:Replica.Modular ~params ~obs () in
  let step ms action = { Schedule.at = Time.span_ms ms; action } in
  let schedule =
    [ step 3 (Schedule.Crash 2); step 6 (Schedule.Delay_spike (Time.span_ms 1)) ]
  in
  ignore (Repro_fault.Nemesis.install_exn ~obs group schedule);
  for i = 0 to msgs - 1 do
    Group.abcast group (i mod 2) ~size:512
  done;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  let spans = Obs.spans obs in
  let faults =
    List.filter (fun (s : Span.t) -> s.Span.layer = `Net && s.Span.phase = "fault") spans
  in
  Alcotest.(check (list string)) "one fault span per step, in plan order"
    (List.map (fun (st : Schedule.step) -> Schedule.action_to_string st.Schedule.action) schedule)
    (List.map (fun (s : Span.t) -> s.Span.detail) faults);
  Alcotest.(check bool) "fault spans are roots" true (List.for_all Span.is_root faults);
  Alcotest.(check (list int)) "stamped at the step instants" [ 3_000_000; 6_000_000 ]
    (List.map (fun (s : Span.t) -> Time.to_ns s.Span.at) faults);
  check_off_delivery_chains "fault spans" spans faults

let test_checksum_drop_spans () =
  let obs = Obs.create () in
  let params = Params.default ~n:3 in
  let group = Group.create ~kind:Replica.Modular ~params ~obs () in
  ignore
    (Repro_fault.Nemesis.install_exn group
       [ { Schedule.at = Time.span_zero; action = Schedule.Corrupt_rate 0.2 } ]);
  for i = 0 to msgs - 1 do
    Group.abcast group (i mod 3) ~size:512
  done;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  let spans = Obs.spans obs in
  let tbl = index spans in
  let drops =
    List.filter
      (fun (s : Span.t) ->
        s.Span.phase = "drop" && String.starts_with ~prefix:"checksum: " s.Span.detail)
      spans
  in
  Alcotest.(check bool) "tampered copies left checksum drop spans" true (drops <> []);
  List.iter
    (fun (d : Span.t) ->
      Alcotest.(check (option string)) "parent is the copy's rx span" (Some "rx")
        (Option.map (fun (p : Span.t) -> p.Span.phase) (Hashtbl.find_opt tbl d.Span.parent)))
    drops;
  check_off_delivery_chains "checksum drops" spans drops

(* ---- Chrome trace export ---- *)

let parse_one line =
  match Jsonl.parse line with Ok j -> j | Error e -> Alcotest.failf "bad fixture %s: %s" line e

let test_chrome_export () =
  let lines =
    List.map parse_one
      [
        {|{"type":"counter","name":"net.msgs.abcast","value":4}|};
        {|{"type":"trace","at_ns":1000,"pid":0,"layer":"net","phase":"tx","detail":"x"}|};
        {|{"type":"span","sid":1,"parent":0,"at_ns":2000,"pid":0,"layer":"app","phase":"publish","detail":""}|};
        {|{"type":"span","sid":2,"parent":1,"at_ns":5500,"pid":1,"layer":"consensus","phase":"propose","detail":"i0 r1"}|};
      ]
  in
  let events =
    match Jsonl.member "traceEvents" (Chrome_trace.export lines) with
    | Some (Jsonl.List evs) ->
      List.filter (fun e -> Jsonl.(to_string_opt (member "ph" e)) <> Some "M") evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let str k e = Jsonl.(to_string_opt (member k e)) in
  let num k e = Jsonl.(to_float_opt (member k e)) in
  let int k e = Jsonl.(to_int_opt (member k e)) in
  match events with
  | [ root; child ] ->
    Alcotest.(check (option string)) "root is an instant" (Some "i") (str "ph" root);
    Alcotest.(check (option string)) "thread-scoped instant" (Some "t") (str "s" root);
    Alcotest.(check (option (float 0.))) "root ts" (Some 2.0) (num "ts" root);
    Alcotest.(check (option int)) "root pid is 1-based" (Some 1) (int "pid" root);
    Alcotest.(check (option int)) "app tid" (Some 4) (int "tid" root);
    Alcotest.(check (option string)) "child is complete" (Some "X") (str "ph" child);
    Alcotest.(check (option (float 0.))) "child starts at parent.at" (Some 2.0) (num "ts" child);
    Alcotest.(check (option (float 0.))) "child lasts at - parent.at" (Some 3.5) (num "dur" child);
    Alcotest.(check (option int)) "child pid is 1-based" (Some 2) (int "pid" child);
    Alcotest.(check (option int)) "consensus tid" (Some 1) (int "tid" child);
    Alcotest.(check (option string)) "name is the phase" (Some "propose") (str "name" child)
  | evs -> Alcotest.failf "expected 2 span events, got %d" (List.length evs)

(* ---- JSONL round-trip ---- *)

let test_span_jsonl_roundtrip () =
  let obs = traced Replica.Modular in
  let spans = Obs.spans obs in
  let lines = Jsonl.span_lines obs in
  Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
  let parsed =
    match Jsonl.parse_lines (String.concat "\n" lines) with
    | Ok l -> l
    | Error e -> Alcotest.failf "unparsable span JSONL: %s" e
  in
  let decoded = Jsonl.spans_of_lines parsed in
  Alcotest.(check int) "every line decodes" (List.length spans)
    (List.length decoded);
  List.iter2
    (fun (a : Span.t) (b : Span.t) ->
      Alcotest.(check int) "sid" a.Span.sid b.Span.sid;
      Alcotest.(check int) "parent" a.Span.parent b.Span.parent;
      Alcotest.(check int) "at" (Time.to_ns a.Span.at) (Time.to_ns b.Span.at);
      Alcotest.(check int) "pid" a.Span.pid b.Span.pid;
      Alcotest.(check string) "layer" (Span.layer_name a.Span.layer)
        (Span.layer_name b.Span.layer);
      Alcotest.(check string) "phase" a.Span.phase b.Span.phase;
      Alcotest.(check string) "detail" a.Span.detail b.Span.detail)
    spans decoded

let test_span_cap_and_drop_counter () =
  let obs = Obs.create ~max_events:25 () in
  ignore (run_stack ~kind:Replica.Modular ~obs);
  Alcotest.(check int) "retained exactly the cap" 25 (Obs.span_count obs);
  Alcotest.(check bool) "dropped the rest" true (Obs.dropped_spans obs > 0);
  (* Sids keep advancing past the cap, so the retained prefix stays
     globally consistent: parents of retained spans are retained. *)
  Alcotest.(check (list int)) "truncated trace has no orphans" []
    (List.map (fun (s : Span.t) -> s.Span.sid) (orphans (Obs.spans obs)));
  let lines = Jsonl.span_lines obs in
  Alcotest.(check int) "cap lines + truncation marker" 26 (List.length lines);
  match Jsonl.parse (List.nth lines 25) with
  | Ok j ->
    Alcotest.(check (option string)) "marker type" (Some "trace_truncated")
      Jsonl.(to_string_opt (member "type" j));
    Alcotest.(check (option string)) "marker stream" (Some "spans")
      Jsonl.(to_string_opt (member "stream" j));
    Alcotest.(check (option int)) "marker count" (Some (Obs.dropped_spans obs))
      Jsonl.(to_int_opt (member "dropped" j))
  | Error e -> Alcotest.failf "unparsable truncation marker: %s" e

(* ---- Bench reports ---- *)

let test_summarize () =
  let s = Br.summarize [ 4.0; 1.0; 3.0; 2.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Br.median;
  Alcotest.(check (float 1e-9)) "iqr" 2.0 s.Br.iqr;
  let one = Br.summarize [ 7.5 ] in
  Alcotest.(check (float 1e-9)) "singleton median" 7.5 one.Br.median;
  Alcotest.(check (float 1e-9)) "singleton iqr" 0.0 one.Br.iqr

let report entries =
  { Br.meta = [ ("mode", "test") ]; entries; breakdown = [] }

let lat ?(iqr = 0.02) median =
  { Br.name = "modular/n3/latency_ms"; median; iqr; unit_ = "ms"; higher_is_better = false }

let tput ?(iqr = 10.0) median =
  { Br.name = "modular/n3/throughput"; median; iqr; unit_ = "msgs/s"; higher_is_better = true }

let test_compare_identical () =
  let r = report [ lat 1.0; tput 500.0 ] in
  let verdicts = Br.compare_reports ~old_report:r ~new_report:r in
  Alcotest.(check int) "both entries compared" 2 (List.length verdicts);
  Alcotest.(check int) "no regressions" 0 (List.length (Br.regressions verdicts))

let test_compare_flags_regression () =
  let old_report = report [ lat 1.0; tput 500.0 ] in
  (* +50% latency: far outside both the IQR band and the 3% threshold. *)
  let worse = report [ lat 1.5; tput 500.0 ] in
  (match Br.regressions (Br.compare_reports ~old_report ~new_report:worse) with
  | [ v ] ->
    Alcotest.(check string) "the latency entry" "modular/n3/latency_ms" v.Br.entry_name;
    Alcotest.(check (float 1e-6)) "delta" 50.0 v.Br.delta_pct
  | other -> Alcotest.failf "expected 1 regression, got %d" (List.length other));
  (* A throughput drop regresses in the other direction. *)
  let slower = report [ lat 1.0; tput 400.0 ] in
  match Br.regressions (Br.compare_reports ~old_report ~new_report:slower) with
  | [ v ] ->
    Alcotest.(check string) "the throughput entry" "modular/n3/throughput" v.Br.entry_name
  | other -> Alcotest.failf "expected 1 regression, got %d" (List.length other)

let test_compare_tolerates_noise_and_improvement () =
  let old_report = report [ lat 1.0; tput 500.0 ] in
  (* Within the IQR noise band: not a regression even though > 3%. *)
  let noisy = report [ lat ~iqr:0.2 1.08; tput 500.0 ] in
  Alcotest.(check int) "noise-band change tolerated" 0
    (List.length (Br.regressions (Br.compare_reports ~old_report ~new_report:noisy)));
  (* Outside the band but under the relative threshold: also tolerated. *)
  let tiny = report [ lat 1.0; tput ~iqr:1.0 495.0 ] in
  Alcotest.(check int) "sub-threshold change tolerated" 0
    (List.length (Br.regressions (Br.compare_reports ~old_report ~new_report:tiny)));
  (* Improvements are never regressions. *)
  let better = report [ lat 0.5; tput 700.0 ] in
  Alcotest.(check int) "improvement tolerated" 0
    (List.length (Br.regressions (Br.compare_reports ~old_report ~new_report:better)))

let test_report_file_roundtrip () =
  let r =
    {
      Br.meta = [ ("mode", "test"); ("repeats", "2") ];
      entries = [ lat 1.25; tput 512.0 ];
      breakdown =
        [ { Br.stack = "modular"; label = "wire"; mean_ms = 0.15; share = 0.2 } ];
    }
  in
  let path = Filename.temp_file "bench_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Br.write_file path r;
      match Br.read_file path with
      | Error e -> Alcotest.failf "read back failed: %s" e
      | Ok r' ->
        Alcotest.(check (list (pair string string))) "meta" r.Br.meta r'.Br.meta;
        Alcotest.(check int) "entries" 2 (List.length r'.Br.entries);
        let e = List.hd r'.Br.entries in
        Alcotest.(check string) "entry name" "modular/n3/latency_ms" e.Br.name;
        Alcotest.(check (float 1e-9)) "entry median" 1.25 e.Br.median;
        Alcotest.(check bool) "direction preserved" false e.Br.higher_is_better;
        match r'.Br.breakdown with
        | [ b ] ->
          Alcotest.(check string) "breakdown label" "wire" b.Br.label;
          Alcotest.(check (float 1e-9)) "breakdown share" 0.2 b.Br.share
        | other -> Alcotest.failf "expected 1 breakdown row, got %d" (List.length other))

let per_stack name f = List.map (fun s -> Alcotest.test_case (fst s) `Quick (f s)) stacks |> fun cases -> (name, cases)

let () =
  Alcotest.run "spans"
    [
      per_stack "no orphans" test_no_orphans;
      per_stack "complete chains" test_complete_chains;
      per_stack "telescoping" test_telescoping;
      ("cut at publish", [ Alcotest.test_case "synthetic trace" `Quick test_synthetic_cut ]);
      per_stack "path = e2e mean" test_gate;
      per_stack "uncut oracle" test_oracle;
      per_stack "non-perturbation" test_spans_do_not_perturb;
      ( "chain ends",
        [
          Alcotest.test_case "fault step spans" `Quick test_fault_spans;
          Alcotest.test_case "checksum drop spans" `Quick test_checksum_drop_spans;
        ] );
      ("chrome-trace", [ Alcotest.test_case "export" `Quick test_chrome_export ]);
      ( "jsonl",
        [
          Alcotest.test_case "span round-trip" `Quick test_span_jsonl_roundtrip;
          Alcotest.test_case "cap and drop counter" `Quick
            test_span_cap_and_drop_counter;
        ] );
      ( "bench-report",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "identical inputs ok" `Quick test_compare_identical;
          Alcotest.test_case "regression flagged" `Quick test_compare_flags_regression;
          Alcotest.test_case "noise and improvement tolerated" `Quick
            test_compare_tolerates_noise_and_improvement;
          Alcotest.test_case "file round-trip" `Quick test_report_file_roundtrip;
        ] );
    ]
