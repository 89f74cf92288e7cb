(* Chrome/Perfetto trace-event export.

   Converts an Obs span JSONL file (the [--trace-out] stream) into the
   Trace Event Format that [about:tracing] and [ui.perfetto.dev] load:
   one process per simulated node, one thread per protocol layer, causal
   spans as complete ("X") events.

   A span records the *instant* its step happened plus a link to the
   causing span; the duration shown is the gap from cause to effect —
   parent.at → span.at — which is exactly the hop the critical-path
   analysis attributes. Spans without a recorded parent (roots) become
   instant ("i") events. Lines of any other type are skipped.
   Timestamps are microseconds as the format requires; virtual
   nanoseconds divide exactly. *)

module Jsonl = Repro_obs.Jsonl
module Span = Repro_obs.Span
module Time = Repro_sim.Time

let layer_tid layer =
  let rec go i = function
    | [] -> i
    | l :: rest -> if l = layer then i else go (i + 1) rest
  in
  go 0 Span.all_layers

let us_of_ns ns = Jsonl.Float (float_of_int ns /. 1e3)

(* Spans whose parent is in the trace become 'X' complete events spanning
   cause → effect; roots (and spans whose parent is missing) stay
   instants. [at_of] maps sids to their instants. *)
let json_of_span at_of (s : Span.t) =
  let at = Time.to_ns s.Span.at in
  let parent_at = if Span.is_root s then None else Hashtbl.find_opt at_of s.Span.parent in
  let ph, ts, extent =
    match parent_at with
    | Some p when p <= at -> ("X", p, [ ("dur", us_of_ns (at - p)) ])
    | _ -> ("i", at, [ ("s", Jsonl.String "t") ])
  in
  let args =
    [ ("sid", Jsonl.Int s.Span.sid); ("parent", Jsonl.Int s.Span.parent) ]
    @ if s.Span.detail = "" then [] else [ ("detail", Jsonl.String s.Span.detail) ]
  in
  Jsonl.Obj
    ([
       ("name", Jsonl.String s.Span.phase);
       ("cat", Jsonl.String (Span.layer_name s.Span.layer));
       ("ph", Jsonl.String ph);
       ("ts", us_of_ns ts);
       ("pid", Jsonl.Int (s.Span.pid + 1));
       ("tid", Jsonl.Int (layer_tid s.Span.layer));
     ]
    @ extent
    @ [ ("args", Jsonl.Obj args) ])

(* Name the pid/tid rows: process p<i>, one thread per layer. *)
let metadata_events pids =
  List.concat_map
    (fun pid ->
      Jsonl.Obj
        [
          ("name", Jsonl.String "process_name");
          ("ph", Jsonl.String "M");
          ("pid", Jsonl.Int pid);
          ("args", Jsonl.Obj [ ("name", Jsonl.String (Printf.sprintf "p%d" pid)) ]);
        ]
      :: List.mapi
           (fun tid layer ->
             Jsonl.Obj
               [
                 ("name", Jsonl.String "thread_name");
                 ("ph", Jsonl.String "M");
                 ("pid", Jsonl.Int pid);
                 ("tid", Jsonl.Int tid);
                 ( "args",
                   Jsonl.Obj [ ("name", Jsonl.String (Span.layer_name layer)) ] );
               ])
           Span.all_layers)
    pids

let export lines =
  let spans = Jsonl.spans_of_lines lines in
  let at_of = Hashtbl.create 1024 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace at_of s.Span.sid (Time.to_ns s.Span.at)) spans;
  let pids = List.sort_uniq Int.compare (List.map (fun (s : Span.t) -> s.Span.pid + 1) spans) in
  Jsonl.Obj
    [
      ( "traceEvents",
        Jsonl.List (metadata_events pids @ List.map (json_of_span at_of) spans) );
      ("displayTimeUnit", Jsonl.String "ms");
    ]

let export_string lines = Jsonl.to_string (export lines)
