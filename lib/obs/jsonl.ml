open Repro_sim

(* ---- A minimal JSON value type, encoder and parser ----

   The schemas emitted here are flat-ish (objects of scalars plus one
   array of bucket pairs), but the parser handles arbitrary JSON so the
   round-trip tests and the @obs-smoke checker need no external
   dependency. Not a validating parser: it accepts exactly the grammar it
   needs and reports the first offending position otherwise. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape_string s =
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

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> float_literal f
  | String s -> "\"" ^ escape_string s ^ "\""
  | List items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape_string k ^ "\":" ^ to_string v) fields)
    ^ "}"

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* Codepoints beyond one byte are rare in our output; encode the
             low byte, enough for the control characters we escape. *)
          Buffer.add_char buf (Char.chr (code land 0xff))
        | _ -> fail "bad escape");
        loop ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at %d" !pos)
    else Ok v
  with
  | Parse_error (p, msg) -> Error (Printf.sprintf "at %d: %s" p msg)
  | Failure msg -> Error msg

let parse_lines text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec loop acc i = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      match parse l with
      | Ok v -> loop (v :: acc) (i + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" (i + 1) e))
  in
  loop [] 1 lines

(* ---- Accessors (for consumers of parsed lines) ---- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float f) -> Some f
  | _ -> None

let to_int_opt = function Some (Int i) -> Some i | _ -> None
let to_string_opt = function Some (String s) -> Some s | _ -> None

(* ---- Exporters ---- *)

let tag_fields tags = List.map (fun (k, v) -> (k, String v)) tags

let metric_lines ?(tags = []) obs =
  let tags = tag_fields tags in
  let counter (name, value) =
    Obj (tags @ [ ("type", String "counter"); ("name", String name); ("value", Int value) ])
  in
  let gauge (name, value) =
    Obj (tags @ [ ("type", String "gauge"); ("name", String name); ("value", Float value) ])
  in
  let histogram (name, h) =
    let s = Histogram.summary h in
    let bucket (upper, count) =
      List [ (match upper with Some e -> Float e | None -> Null); Int count ]
    in
    Obj
      (tags
      @ [
          ("type", String "histogram");
          ("name", String name);
          ("count", Int s.Stats.count);
          ("mean", Float s.Stats.mean);
          ("p50", Float s.Stats.p50);
          ("p95", Float s.Stats.p95);
          ("p99", Float s.Stats.p99);
          ("max", Float s.Stats.max);
          ("buckets", List (List.map bucket (Histogram.buckets h)));
        ])
  in
  List.map counter (Obs.counters obs)
  @ List.map gauge (Obs.gauges obs)
  @ List.map histogram (Obs.histograms obs)
  |> List.map to_string

(* A single marker line flags a stream hitting the [max_events] cap, so a
   truncated export can never be mistaken for a complete one. *)
let truncation_line tags ~stream ~dropped =
  if dropped = 0 then []
  else
    [
      to_string
        (Obj
           (tags
           @ [
               ("type", String "trace_truncated");
               ("stream", String stream);
               ("dropped", Int dropped);
             ]));
    ]

let render_span tags (s : Span.t) =
  to_string
    (Obj
       (tags
       @ [
           ("type", String "span");
           ("sid", Int s.Span.sid);
           ("parent", Int s.Span.parent);
           ("at_ns", Int (Time.to_ns s.Span.at));
           ("pid", Int s.Span.pid);
           ("layer", String (Span.layer_name s.Span.layer));
           ("phase", String s.Span.phase);
           ("detail", String s.Span.detail);
         ]))

let span_line s = render_span [] s

let span_lines ?(tags = []) obs =
  let tags = tag_fields tags in
  List.map (render_span tags) (Obs.spans obs)
  @ truncation_line tags ~stream:"spans" ~dropped:(Obs.dropped_spans obs)

(* Read spans back out of a parsed JSONL trace (lines of any other type
   are ignored), for offline critical-path analysis. *)
let span_of_json j =
  match member "type" j with
  | Some (String "span") -> (
    match
      ( to_int_opt (member "sid" j),
        to_int_opt (member "parent" j),
        to_int_opt (member "at_ns" j),
        to_int_opt (member "pid" j),
        Option.bind (to_string_opt (member "layer" j)) Span.layer_of_name,
        to_string_opt (member "phase" j) )
    with
    | Some sid, Some parent, Some at_ns, Some pid, Some layer, Some phase ->
      Some
        {
          Span.sid;
          parent;
          at = Time.of_ns at_ns;
          pid;
          layer;
          phase;
          detail =
            (match to_string_opt (member "detail" j) with Some d -> d | None -> "");
        }
    | _ -> None)
  | _ -> None

let spans_of_lines lines = List.filter_map span_of_json lines

let write_file path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let write_metrics_file ?tags path obs = write_file path (metric_lines ?tags obs)
let write_trace_file ?tags path obs = write_file path (span_lines ?tags obs)
