(* The snapshot codec: a versioned, self-describing container for module
   state. Every simulated component exposes [snapshot : t -> section]
   (its enumerable data-plane state as ordered key/field pairs plus an
   optional opaque bulk payload). Sections are a diagnostic view: they
   serve the binary frame log written by [Repro_replay], the JSON
   state-diff reports emitted by [repro bisect], and the codec round-trip
   property tests. Resuming a run never reads them back.

   The binary encoding is hand-rolled (not [Marshal]) so frame *metadata*
   stays readable across rebuilds of the binary; only the world blob
   (pending events are closures) is build-pinned. *)

type field =
  | Bool of bool
  | Int of int
  | I64 of int64
  | Float of float
  | String of string
  | List of field list

type section = {
  name : string;
  version : int;
  fields : (string * field) list;
  data : string;
}

exception Codec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Codec_error s)) fmt
let make ~name ~version ?(data = "") fields = { name; version; fields; data }

let get_int s key =
  match List.assoc_opt key s.fields with
  | Some (Int i) -> i
  | Some _ -> fail "section %s: %s is not an int" s.name key
  | None -> fail "section %s: missing field %s" s.name key

let rec equal_field a b =
  match (a, b) with
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | I64 x, I64 y -> Int64.equal x y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal_field x y
  | _ -> false

let equal_section a b =
  String.equal a.name b.name && a.version = b.version
  && List.equal
       (fun (ka, fa) (kb, fb) -> String.equal ka kb && equal_field fa fb)
       a.fields b.fields
  && String.equal a.data b.data

(* ---- binary codec ---- *)

let magic = "REPRO-SNAP\x01"

let add_i64 buf i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 i;
  Buffer.add_bytes buf b

let add_int buf i = add_i64 buf (Int64.of_int i)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_field buf = function
  | Bool b ->
    Buffer.add_char buf '\000';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Int i ->
    Buffer.add_char buf '\001';
    add_int buf i
  | I64 i ->
    Buffer.add_char buf '\002';
    add_i64 buf i
  | Float f ->
    Buffer.add_char buf '\003';
    add_i64 buf (Int64.bits_of_float f)
  | String s ->
    Buffer.add_char buf '\004';
    add_string buf s
  | List items ->
    Buffer.add_char buf '\005';
    add_int buf (List.length items);
    List.iter (add_field buf) items

let add_section buf s =
  add_string buf s.name;
  add_int buf s.version;
  add_int buf (List.length s.fields);
  List.iter
    (fun (k, f) ->
      add_string buf k;
      add_field buf f)
    s.fields;
  add_string buf s.data

let encode_sections sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  add_int buf (List.length sections);
  List.iter (add_section buf) sections;
  Buffer.contents buf

type reader = { src : string; mutable pos : int }

(* [n] may be a corrupt length near [max_int]: compare against the bytes
   left, since [r.pos + n] could wrap negative. *)
let need r n =
  if n > String.length r.src - r.pos then fail "truncated snapshot at byte %d" r.pos

let read_i64 r =
  need r 8;
  let i = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  i

let read_int r =
  let i = read_i64 r in
  let v = Int64.to_int i in
  if Int64.of_int v <> i then fail "int out of range at byte %d" (r.pos - 8);
  v

let read_byte r =
  need r 1;
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  Char.code c

let read_string r =
  let n = read_int r in
  if n < 0 then fail "negative length at byte %d" (r.pos - 8);
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rec read_field r =
  match read_byte r with
  | 0 -> Bool (read_byte r <> 0)
  | 1 -> Int (read_int r)
  | 2 -> I64 (read_i64 r)
  | 3 -> Float (Int64.float_of_bits (read_i64 r))
  | 4 -> String (read_string r)
  | 5 ->
    let n = read_int r in
    if n < 0 then fail "negative list length at byte %d" (r.pos - 8);
    List (List.init n (fun _ -> read_field r))
  | t -> fail "unknown field tag %d at byte %d" t (r.pos - 1)

let read_section r =
  let name = read_string r in
  let version = read_int r in
  let nfields = read_int r in
  if nfields < 0 then fail "negative field count in %s" name;
  let fields =
    List.init nfields (fun _ ->
        let k = read_string r in
        let f = read_field r in
        (k, f))
  in
  let data = read_string r in
  { name; version; fields; data }

let decode_sections src =
  let r = { src; pos = 0 } in
  need r (String.length magic);
  if not (String.equal (String.sub src 0 (String.length magic)) magic) then
    fail "bad snapshot magic";
  r.pos <- String.length magic;
  let n = read_int r in
  if n < 0 then fail "negative section count";
  let sections = List.init n (fun _ -> read_section r) in
  if r.pos <> String.length src then fail "trailing bytes after section %d" n;
  sections

(* ---- JSON rendering (for reports; write-only) ---- *)

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec field_to_json = function
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | I64 i -> Printf.sprintf "\"0x%Lx\"" i
  | Float f -> float_literal f
  | String s -> "\"" ^ escape_json s ^ "\""
  | List items -> "[" ^ String.concat "," (List.map field_to_json items) ^ "]"

(* ---- structural diff (bisect's state-diff report) ---- *)

type field_diff = { key : string; before : field option; after : field option }

type section_diff = {
  section : string;
  changed : field_diff list;
  data_changed : bool;
}

let diff_one a b =
  let keys =
    List.map fst a.fields
    @ List.filter
        (fun k -> not (List.mem_assoc k a.fields))
        (List.map fst b.fields)
  in
  let changed =
    List.filter_map
      (fun key ->
        let before = List.assoc_opt key a.fields in
        let after = List.assoc_opt key b.fields in
        match (before, after) with
        | Some x, Some y when equal_field x y -> None
        | _ -> Some { key; before; after })
      keys
  in
  let data_changed = not (String.equal a.data b.data) in
  if changed = [] && not data_changed then None
  else Some { section = a.name; changed; data_changed }

let diff_sections before after =
  let names =
    List.map (fun s -> s.name) before
    @ List.filter_map
        (fun s ->
          if List.exists (fun s' -> String.equal s'.name s.name) before then None
          else Some s.name)
        after
  in
  List.filter_map
    (fun name ->
      let fa = List.find_opt (fun s -> String.equal s.name name) before in
      let fb = List.find_opt (fun s -> String.equal s.name name) after in
      match (fa, fb) with
      | Some a, Some b -> diff_one a b
      | Some a, None ->
        Some
          {
            section = name;
            changed =
              List.map (fun (key, f) -> { key; before = Some f; after = None }) a.fields;
            data_changed = String.length a.data > 0;
          }
      | None, Some b ->
        Some
          {
            section = name;
            changed =
              List.map (fun (key, f) -> { key; before = None; after = Some f }) b.fields;
            data_changed = String.length b.data > 0;
          }
      | None, None -> None)
    names

let section_diff_to_json d =
  let field_opt = function None -> "null" | Some f -> field_to_json f in
  let changes =
    List.map
      (fun c ->
        Printf.sprintf "{\"field\":\"%s\",\"before\":%s,\"after\":%s}"
          (escape_json c.key) (field_opt c.before) (field_opt c.after))
      d.changed
  in
  Printf.sprintf
    "{\"section\":\"%s\",\"data_changed\":%b,\"changes\":[%s]}"
    (escape_json d.section) d.data_changed
    (String.concat "," changes)

(* ---- bulk payload ----

   Pure-data bulk state (tables, queues, logs — no closures) rides in
   [section.data] via [Marshal] without [Closures]. Nothing reads it back
   at its type: bisect compares payloads byte-wise ([data_changed]), and
   resume goes through the world blob. *)

let pack v = Marshal.to_string v []
