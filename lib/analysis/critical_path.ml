open Repro_sim
module Span = Repro_obs.Span

(* One hop of a causal chain: the time between a span and its parent,
   attributed to what the child represents. A hop whose endpoints sit on
   different processes is wire time (transmit -> receive of one message
   copy: NIC serialisation, propagation, jitter, FIFO queueing); a
   same-process hop is the receive-side CPU and queueing spent reaching
   that protocol step. The hop that straddles the message's publish
   instant contributes only its post-publish part, as [wait]. *)
type segment = { label : string; layer : string; ns : int }

type path = {
  delivery : Span.t;
  publish : int;
  segments : segment list;  (* oldest hop first *)
  total_ns : int;
}

let is_delivery (s : Span.t) = s.Span.layer = `App && s.Span.phase = "adeliver"
let is_publish (s : Span.t) = s.Span.layer = `App && s.Span.phase = "publish"

(* [grow a n fill] is [a] extended with [fill] to a length of at least
   [n], doubling so that repeated growth stays linear. *)
let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* ---- Labels and their totals ---- *)

(* Every label is a small int: it indexes the name, the layer and the
   running hop count and nanosecond sum. *)
type tally = {
  mutable names : string array;
  mutable layers : string array;
  mutable hops : int array;
  mutable ns : int array;
  mutable count : int;
}

let wire = 0
let wait = 1

let new_label t ~name ~layer =
  let id = t.count in
  t.names <- grow t.names (id + 1) "";
  t.layers <- grow t.layers (id + 1) "";
  t.hops <- grow t.hops (id + 1) 0;
  t.ns <- grow t.ns (id + 1) 0;
  t.names.(id) <- name;
  t.layers.(id) <- layer;
  t.count <- id + 1;
  id

let create_tally () =
  let t = { names = [||]; layers = [||]; hops = [||]; ns = [||]; count = 0 } in
  ignore (new_label t ~name:"wire" ~layer:"wire");
  ignore (new_label t ~name:"wait" ~layer:"wait");
  t

let add_hop t label ns =
  t.hops.(label) <- t.hops.(label) + 1;
  t.ns.(label) <- t.ns.(label) + ns

(* ---- Dense span index ---- *)

(* Sids are dense from 1, so the index is one flat int array with four
   cells per sid: parent, instant (ns), pid and the label of the hop
   into the span. A sid never added has label -1. [publishes] maps a
   message id [(o, q)] to the sid of its latest publish. *)
type index = {
  tally : tally;
  phases : (string, int) Hashtbl.t array;  (* per layer: phase -> label *)
  mutable cells : int array;
  publishes : (int * int, int) Hashtbl.t;
}

let stride = 4
let parent ix sid = ix.cells.(stride * sid)
let at ix sid = ix.cells.((stride * sid) + 1)
let pid_of ix sid = ix.cells.((stride * sid) + 2)
let label_of ix sid = ix.cells.((stride * sid) + 3)
let known ix sid = sid > 0 && (stride * sid) < Array.length ix.cells && label_of ix sid >= 0

let layer_slot : Span.layer -> int = function
  | `Abcast -> 0
  | `Consensus -> 1
  | `Rbcast -> 2
  | `Net -> 3
  | `App -> 4

let create_index () =
  {
    tally = create_tally ();
    phases = Array.init 5 (fun _ -> Hashtbl.create 16);
    cells = Array.make (stride * 1024) (-1);
    publishes = Hashtbl.create 1024;
  }

let intern ix (s : Span.t) =
  let tbl = ix.phases.(layer_slot s.Span.layer) in
  match Hashtbl.find_opt tbl s.Span.phase with
  | Some id -> id
  | None ->
    let layer = Span.layer_name s.Span.layer in
    let id = new_label ix.tally ~name:(layer ^ "/" ^ s.Span.phase) ~layer in
    Hashtbl.replace tbl s.Span.phase id;
    id

(* The message id [o/q] that App publish and adeliver details start
   with ("m 2/17", "m 2/17 (1024 B)"), read with a digit scan. *)
let message_id detail =
  let n = String.length detail in
  let rec digits i v =
    if i < n && detail.[i] >= '0' && detail.[i] <= '9' then
      digits (i + 1) ((10 * v) + Char.code detail.[i] - Char.code '0')
    else (i, v)
  in
  if not (String.starts_with ~prefix:"m " detail) then None
  else
    let i, origin = digits 2 0 in
    if i = 2 || i >= n || detail.[i] <> '/' then None
    else
      let j, seq = digits (i + 1) 0 in
      if j = i + 1 then None else Some (origin, seq)

let add ix (s : Span.t) =
  let sid = s.Span.sid in
  if sid > 0 then begin
    ix.cells <- grow ix.cells (stride * (sid + 1)) (-1);
    let c = stride * sid in
    ix.cells.(c) <- s.Span.parent;
    ix.cells.(c + 1) <- Time.to_ns s.Span.at;
    ix.cells.(c + 2) <- s.Span.pid;
    ix.cells.(c + 3) <- intern ix s;
    if is_publish s then
      Option.iter (fun id -> Hashtbl.replace ix.publishes id sid) (message_id s.Span.detail)
  end

(* ---- Cutting a path at its publish ---- *)

(* Fold [f label ns] over the hops from delivery [d] back to [publish],
   newest first. The walk stops on reaching the publish itself, or where
   the next parent is missing, not strictly older, or stamped before the
   publish instant: the remaining [d'.at - publish.at] of that straddling
   hop is time the message spent waiting for an instance or batch already
   in flight. Either way the hops telescope to [d.at - publish.at]. *)
let fold_hops ix ~publish d f acc =
  let p_at = at ix publish in
  let rec up child acc =
    if child = publish then acc
    else
      let p = parent ix child in
      if p < child && known ix p && at ix p >= p_at then
        let l = if pid_of ix p <> pid_of ix child then wire else label_of ix child in
        up p (f l (at ix child - at ix p) acc)
      else f wait (at ix child - p_at) acc
  in
  up d acc

(* Feed a span stream, in sid order, through the index; each delivery
   (at [pid], when given) is passed to [on_path] with its publish sid
   as it arrives, since its ancestors all precede it. Deliveries whose
   publish never arrived are counted and skipped. Taking the latest
   publish of a message id keeps absorbed multi-run traces apart. *)
let scan ?pid iter on_path =
  let ix = create_index () in
  let skipped = ref 0 in
  iter (fun (s : Span.t) ->
      add ix s;
      if is_delivery s && (match pid with None -> true | Some p -> s.Span.pid = p) then
        match Option.bind (message_id s.Span.detail) (Hashtbl.find_opt ix.publishes) with
        | Some publish -> on_path ix s publish
        | None -> incr skipped);
  (ix, !skipped)

let paths ?pid spans =
  let acc = ref [] in
  ignore
    (scan ?pid
       (fun f -> List.iter f spans)
       (fun ix d publish ->
         let t = ix.tally in
         let segments =
           fold_hops ix ~publish d.Span.sid
             (fun l ns segs -> { label = t.names.(l); layer = t.layers.(l); ns } :: segs)
             []
         in
         acc :=
           { delivery = d; publish; segments; total_ns = Time.to_ns d.Span.at - at ix publish }
           :: !acc));
  List.rev !acc

(* ---- Aggregation ---- *)

type breakdown_row = {
  row_label : string;
  row_layer : string;
  hops : int;  (* total hops with this label across all paths *)
  total_ms : float;
  mean_ms : float;  (* per delivery: total / #paths *)
  share : float;  (* of the summed end-to-end time *)
}

type breakdown = {
  deliveries : int;
  skipped : int;
  end_to_end_ms : float;  (* summed over deliveries *)
  mean_end_to_end_ms : float;
  rows : breakdown_row list;  (* sorted by total time, largest first *)
}

let ns_to_ms ns = float_of_int ns /. 1e6

let summarise t ~deliveries ~skipped ~total_ns =
  let per_delivery ms = if deliveries = 0 then 0.0 else ms /. float_of_int deliveries in
  let rows =
    List.init t.count (fun l ->
        {
          row_label = t.names.(l);
          row_layer = t.layers.(l);
          hops = t.hops.(l);
          total_ms = ns_to_ms t.ns.(l);
          mean_ms = per_delivery (ns_to_ms t.ns.(l));
          share = (if total_ns = 0 then 0.0 else float_of_int t.ns.(l) /. float_of_int total_ns);
        })
    |> List.filter (fun r -> r.hops > 0)
    |> List.sort (fun a b ->
           match compare b.total_ms a.total_ms with
           | 0 -> compare a.row_label b.row_label
           | c -> c)
  in
  {
    deliveries;
    skipped;
    end_to_end_ms = ns_to_ms total_ns;
    mean_end_to_end_ms = per_delivery (ns_to_ms total_ns);
    rows;
  }

let breakdown paths =
  let t = create_tally () in
  let ids = Hashtbl.create 32 in
  List.iter (fun l -> Hashtbl.replace ids t.names.(l) l) [ wire; wait ];
  let total_ns = ref 0 in
  List.iter
    (fun p ->
      total_ns := !total_ns + p.total_ns;
      List.iter
        (fun seg ->
          let l =
            match Hashtbl.find_opt ids seg.label with
            | Some l -> l
            | None ->
              let l = new_label t ~name:seg.label ~layer:seg.layer in
              Hashtbl.replace ids seg.label l;
              l
          in
          add_hop t l seg.ns)
        p.segments)
    paths;
  summarise t ~deliveries:(List.length paths) ~skipped:0 ~total_ns:!total_ns

let of_iter ?pid iter =
  let deliveries = ref 0 and total_ns = ref 0 in
  let ix, skipped =
    scan ?pid iter (fun ix d publish ->
        incr deliveries;
        total_ns := !total_ns + Time.to_ns d.Span.at - at ix publish;
        fold_hops ix ~publish d.Span.sid (fun l ns () -> add_hop ix.tally l ns) ())
  in
  summarise ix.tally ~deliveries:!deliveries ~skipped ~total_ns:!total_ns

let of_spans ?pid spans = of_iter ?pid (fun f -> List.iter f spans)

let by_layer b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let ms = match Hashtbl.find_opt tbl r.row_layer with Some m -> m | None -> 0.0 in
      Hashtbl.replace tbl r.row_layer (ms +. r.total_ms))
    b.rows;
  Hashtbl.fold (fun layer ms acc -> (layer, ms) :: acc) tbl []
  (* Tie-break equal totals by layer name so the JSONL/report order is a
     function of the data, not of the table's hash order. *)
  |> List.sort (fun (la, a) (lb, b) ->
         match compare b a with 0 -> compare la lb | c -> c)

let pp_breakdown ppf b =
  Fmt.pf ppf "%d deliveries, mean end-to-end %.6f ms@." b.deliveries
    b.mean_end_to_end_ms;
  if b.skipped > 0 then
    Fmt.pf ppf "%d deliveries skipped: their publish span is not in the trace@." b.skipped;
  Fmt.pf ppf "%-22s %8s %10s %10s %7s@." "segment" "hops" "total ms" "ms/deliv"
    "share";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-22s %8d %10.3f %10.4f %6.1f%%@." r.row_label r.hops r.total_ms
        r.mean_ms (100.0 *. r.share))
    b.rows
