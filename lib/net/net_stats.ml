type snapshot = { messages : int; payload_bytes : int; wire_bytes : int }

(* Native counters: [record_send] runs once per wire copy, squarely on the
   transmit hot path, so every count is an int store — the totals in
   fields, the per-sender and per-kind counts in array slots. The caller
   names the kind by its slot: the network's dense kinds come first, and
   a kind first met at run time (a tampered copy, a test's free-form
   label) gets the next slot through [kind_slot], off the hot path. *)
type t = {
  mutable messages : int;
  mutable payload : int;
  mutable wire : int;
  sent : int array; (* messages per source pid *)
  mutable kind_names : string array; (* slot -> kind *)
  mutable kinds : int array; (* messages per kind slot *)
}

let zero = { messages = 0; payload_bytes = 0; wire_bytes = 0 }

let create ~n ~kinds =
  {
    messages = 0;
    payload = 0;
    wire = 0;
    sent = Array.make n 0;
    kind_names = Array.copy kinds;
    kinds = Array.make (Array.length kinds) 0;
  }

let kind_slot t name =
  let rec find i =
    if i = Array.length t.kind_names then begin
      t.kind_names <- Array.append t.kind_names [| name |];
      t.kinds <- Array.append t.kinds [| 0 |];
      i
    end
    else if String.equal t.kind_names.(i) name then i
    else find (i + 1)
  in
  find 0

let kind_name t slot = t.kind_names.(slot)

let record_send t ~src ~kind ~payload_bytes ~wire_bytes =
  t.messages <- t.messages + 1;
  t.payload <- t.payload + payload_bytes;
  t.wire <- t.wire + wire_bytes;
  t.sent.(src) <- t.sent.(src) + 1;
  t.kinds.(kind) <- t.kinds.(kind) + 1

let by_kind t =
  let acc = ref [] in
  Array.iteri
    (fun slot count -> if count > 0 then acc := (t.kind_names.(slot), count) :: !acc)
    t.kinds;
  List.sort compare !acc

let snapshot t =
  { messages = t.messages; payload_bytes = t.payload; wire_bytes = t.wire }

let sent_by t p = t.sent.(p)

let diff (later : snapshot) (earlier : snapshot) =
  {
    messages = later.messages - earlier.messages;
    payload_bytes = later.payload_bytes - earlier.payload_bytes;
    wire_bytes = later.wire_bytes - earlier.wire_bytes;
  }

let pp_snapshot ppf (s : snapshot) =
  Fmt.pf ppf "%d msgs, %d B payload, %d B on wire" s.messages s.payload_bytes
    s.wire_bytes

type dump = {
  d_messages : int;
  d_payload : int;
  d_wire : int;
  d_sent : int array;
  d_kinds : (string * int) list;
}

let dump t =
  {
    d_messages = t.messages;
    d_payload = t.payload;
    d_wire = t.wire;
    d_sent = Array.copy t.sent;
    d_kinds = by_kind t;
  }
