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

(* Appends [s] as a quoted JSON string. Runs of bytes that need no
   escaping go in with one blit each, so a clean string — every span's
   layer and phase, nearly every detail — is a single blit. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let clean = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !clean (i - !clean);
      clean := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789abcdef".[Char.code c land 0xf]
    end
  done;
  Buffer.add_substring buf s !clean (n - !clean);
  Buffer.add_char buf '"'

(* Decimal digits straight into the buffer, with no intermediate string. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> add_quoted buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_quoted buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 64 in
  to_buffer buf j;
  Buffer.contents buf

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

let metric_jsons tags obs =
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

let metric_lines ?(tags = []) obs = List.map to_string (metric_jsons tags obs)

(* A single marker line flags a stream hitting the [max_events] cap, so a
   truncated export can never be mistaken for a complete one. *)
let truncation_json tags obs =
  match Obs.dropped_spans obs with
  | 0 -> None
  | dropped ->
    Some
      (Obj
         (tag_fields tags
         @ [
             ("type", String "trace_truncated");
             ("stream", String "spans");
             ("dropped", Int dropped);
           ]))

(* The opening brace and the rendered tags, each followed by a comma:
   the part of every span line that does not depend on the span. *)
let span_prefix tags =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  List.iter
    (fun (k, v) ->
      add_quoted buf k;
      Buffer.add_char buf ':';
      add_quoted buf v;
      Buffer.add_char buf ',')
    tags;
  Buffer.contents buf

(* Appends one span line (no newline) to [buf]: the bytes [to_string]
   gives an [Obj] of the tags followed by these eight fields. *)
let add_span prefix buf (s : Span.t) =
  Buffer.add_string buf prefix;
  Buffer.add_string buf "\"type\":\"span\",\"sid\":";
  add_int buf s.Span.sid;
  Buffer.add_string buf ",\"parent\":";
  add_int buf s.Span.parent;
  Buffer.add_string buf ",\"at_ns\":";
  add_int buf (Time.to_ns s.Span.at);
  Buffer.add_string buf ",\"pid\":";
  add_int buf s.Span.pid;
  Buffer.add_string buf ",\"layer\":";
  add_quoted buf (Span.layer_name s.Span.layer);
  Buffer.add_string buf ",\"phase\":";
  add_quoted buf s.Span.phase;
  Buffer.add_string buf ",\"detail\":";
  add_quoted buf s.Span.detail;
  Buffer.add_char buf '}'

let render_span prefix buf s =
  Buffer.clear buf;
  add_span prefix buf s;
  Buffer.contents buf

let span_line s = render_span (span_prefix []) (Buffer.create 256) s

let span_lines ?(tags = []) obs =
  let buf = Buffer.create 256 and prefix = span_prefix tags in
  Obs.fold_spans_right
    (fun s lines -> render_span prefix buf s :: lines)
    obs
    (Option.to_list (Option.map to_string (truncation_json tags obs)))

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

(* Renders one line into the reused [buf] and copies it to the channel
   from there, so no line string and no list of lines is built. *)
let output_line oc buf add x =
  Buffer.clear buf;
  add buf x;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf

let write_lines path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc (Buffer.create 256))

let write_metrics_file ?(tags = []) path obs =
  write_lines path (fun oc buf ->
      List.iter (output_line oc buf to_buffer) (metric_jsons tags obs))

let write_trace_file ?(tags = []) path obs =
  let prefix = span_prefix tags in
  write_lines path (fun oc buf ->
      List.iter (output_line oc buf (add_span prefix)) (Obs.spans obs);
      Option.iter (output_line oc buf to_buffer) (truncation_json tags obs))
