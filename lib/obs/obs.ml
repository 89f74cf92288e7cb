open Repro_sim
module Span = Span

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]

let layer_name = Span.layer_name
let all_layers : layer list = Span.all_layers

(* Counters and histograms live in dense per-sink slots. A name is
   resolved to its slot once — by a module at creation, through
   {!counter}/{!histogram} — and every later bump is one array store with
   no hashing, no string comparison and no allocation. The name-keyed
   calls ([incr], [observe]) resolve and then bump the same slot, so a
   name and its handle are one metric. Slots are never freed or moved:
   a handle stays valid for the sink's lifetime. *)
type counter = int
type histogram = int

type t = {
  enabled : bool;
  mutable now : unit -> Time.t;
  ctr_index : (string, int) Hashtbl.t; (* name -> slot; size = slots used *)
  mutable ctr_vals : int array;
  (* Byte [slot] is set by a non-positive add. A counter is listed once it
     is nonzero or touched, so a resolved handle that was never bumped
     stays invisible while [incr ~by:0] still lists a 0; a positive bump,
     the hot case, needs no flag. *)
  mutable ctr_touched : Bytes.t;
  gauges : (string, float ref) Hashtbl.t;
  hist_index : (string, int) Hashtbl.t;
  (* Created at resolution, listed once it holds a sample. *)
  mutable hists : Histogram.t array;
  spans : Span.t Trace.t;
  max_events : int;
  mutable dropped_spans : int;
  mutable next_sid : int;
  mutable ctx : int;
}

let make ~enabled ~max_events =
  {
    enabled;
    now = (fun () -> Time.zero);
    ctr_index = Hashtbl.create 64;
    (* A group resolves about fifty counters: sized so that building one
       does not regrow the arrays. *)
    ctr_vals = Array.make 64 0;
    ctr_touched = Bytes.make 64 '\000';
    gauges = Hashtbl.create 16;
    hist_index = Hashtbl.create 16;
    hists = [||];
    spans = Trace.create ();
    max_events;
    dropped_spans = 0;
    next_sid = 0;
    ctx = Span.no_parent;
  }

(* The shared no-op sink: disabled forever, so every instrumentation call
   reduces to one branch. A single instance is safe because a disabled
   sink never mutates its tables. *)
let noop = make ~enabled:false ~max_events:0

let create ?(max_events = 2_000_000) () = make ~enabled:true ~max_events

(* A sibling sink for one parallel task: same retention cap, same
   enabledness. [create_like noop] is [noop], so callers can split any
   sink per task and absorb the pieces back without special-casing the
   disabled path. *)
let create_like t = if t.enabled then make ~enabled:true ~max_events:t.max_events else t

let set_clock t now = if t.enabled then t.now <- now

let enabled t = t.enabled

(* Metrics and tracing are separable: a [max_events = 0] sink keeps full
   counters while retaining no spans. Hot paths that build a span's
   [detail] string ask this before formatting — with tracing off the
   string would be allocated only to be dropped inside [span]. *)
let tracing t = t.enabled && t.max_events > 0
let now t = t.now ()

(* ---- Metrics ---- *)

let grown a fill =
  let b = Array.make (max 4 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let touched t slot = Bytes.get t.ctr_touched slot <> '\000'

(* Find or allocate a name's slot. Callers check enabledness. *)
let ctr_slot t name =
  match Hashtbl.find t.ctr_index name with
  | slot -> slot
  | exception Not_found ->
    let slot = Hashtbl.length t.ctr_index in
    if slot = Array.length t.ctr_vals then begin
      t.ctr_vals <- grown t.ctr_vals 0;
      t.ctr_touched <- Bytes.extend t.ctr_touched 0 (Array.length t.ctr_vals - slot);
      Bytes.fill t.ctr_touched slot (Array.length t.ctr_vals - slot) '\000'
    end;
    Hashtbl.add t.ctr_index name slot;
    slot

let hist_slot t ?edges name =
  match Hashtbl.find t.hist_index name with
  | slot -> slot
  | exception Not_found ->
    let slot = Hashtbl.length t.hist_index in
    let h = Histogram.create ?edges () in
    (* [h] also fills the fresh tail; each later slot is overwritten when
       it is allocated. *)
    if slot = Array.length t.hists then t.hists <- grown t.hists h;
    t.hists.(slot) <- h;
    Hashtbl.add t.hist_index name slot;
    slot

(* On a disabled sink every handle is 0 and is never dereferenced: the
   shared [noop] is never written, not even by resolution. *)
let counter t name = if t.enabled then ctr_slot t name else 0
let bump t c = if t.enabled then t.ctr_vals.(c) <- t.ctr_vals.(c) + 1

let add t c by =
  if t.enabled then begin
    t.ctr_vals.(c) <- t.ctr_vals.(c) + by;
    if by <= 0 then Bytes.set t.ctr_touched c '\001'
  end

let incr t ?(by = 1) name = if t.enabled then add t (ctr_slot t name) by

let counter_value t name =
  match Hashtbl.find_opt t.ctr_index name with
  | Some slot -> t.ctr_vals.(slot)
  | None -> 0

let counters t =
  Hashtbl.fold
    (fun name slot acc ->
      if t.ctr_vals.(slot) <> 0 || touched t slot then (name, t.ctr_vals.(slot)) :: acc
      else acc)
    t.ctr_index []
  |> List.sort compare

let set_gauge t name v =
  if t.enabled then
    match Hashtbl.find t.gauges name with
    | slot -> slot := v
    | exception Not_found -> Hashtbl.add t.gauges name (ref v)

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some slot -> Some !slot | None -> None

let gauges t =
  Hashtbl.fold (fun name slot acc -> (name, !slot) :: acc) t.gauges []
  |> List.sort compare

let histogram t ?edges name = if t.enabled then hist_slot t ?edges name else 0
let sample t h v = if t.enabled then Histogram.observe t.hists.(h) v

let sample_since t h since =
  if t.enabled then
    let at = t.now () in
    (* A sink whose clock was never wired (or an event stamped before the
       clock advanced) must not crash the protocol it observes. *)
    if Time.(at >= since) then Histogram.observe_span t.hists.(h) (Time.diff at since)

let observe t ?edges name v = if t.enabled then sample t (hist_slot t ?edges name) v

let observe_since t ?edges name since =
  if t.enabled then sample_since t (hist_slot t ?edges name) since

let histogram_summary t name =
  match Hashtbl.find_opt t.hist_index name with
  | Some slot when Histogram.count t.hists.(slot) > 0 ->
    Some (Histogram.summary t.hists.(slot))
  | _ -> None

let histograms t =
  Hashtbl.fold
    (fun name slot acc ->
      if Histogram.count t.hists.(slot) > 0 then (name, t.hists.(slot)) :: acc else acc)
    t.hist_index []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- Causal spans ----

   Ids count up from 1 whether or not the record is retained, so a trace
   truncated by [max_events] still has globally consistent parent links
   (children of a dropped span reference an id that is simply absent). *)

let span t ~parent ~pid ~layer ~phase ~detail =
  if not t.enabled then Span.no_parent
  else begin
    let sid = t.next_sid + 1 in
    t.next_sid <- sid;
    if Trace.length t.spans < t.max_events then
      Trace.record t.spans { Span.sid; parent; at = t.now (); pid; layer; phase; detail }
    else t.dropped_spans <- t.dropped_spans + 1;
    sid
  end

let span_ctx t = if t.enabled then t.ctx else Span.no_parent
let set_span_ctx t sid = if t.enabled then t.ctx <- sid

(* The ambient context is only ever read to parent a span, and [span]
   records nothing unless [tracing]. So on a metrics-only sink
   ([max_events = 0], which includes [noop]) the save/set/restore would
   be dead work on every delivered message; skip it. The restore is
   written out rather than left to [Fun.protect], whose [finally]
   closure and handler frame cost an allocation per call. *)
let with_span_ctx t sid f =
  if t.max_events = 0 then f ()
  else begin
    let saved = t.ctx in
    t.ctx <- sid;
    match f () with
    | v ->
      t.ctx <- saved;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.ctx <- saved;
      Printexc.raise_with_backtrace e bt
  end

let spans t = Trace.events t.spans
let fold_spans_right f t init = Trace.fold_right f t.spans init
let span_count t = Trace.length t.spans
let dropped_spans t = t.dropped_spans

(* ---- Merging (parallel harness support) ----

   [absorb dst src] appends everything [src] recorded onto [dst] as if it
   had been recorded there directly, in [src]'s order: counters add,
   gauges overwrite (last write wins, as in a sequential schedule),
   histogram samples replay in order, spans append until
   [dst]'s cap with the excess counted as dropped. Span ids are shifted
   past every id [dst] has allocated — including ids of records the cap
   discarded — which reproduces exactly the ids a single shared sink
   would have handed out under the sequential schedule; parent links
   shift with them ([no_parent] stays put).

   The parallel harness gives each task a private sink ([create_like])
   and absorbs them back in task order, so a parallel run's JSONL export
   is byte-identical to the sequential one. *)

let absorb dst src =
  if dst.enabled && src.enabled then begin
    List.iter (fun (name, v) -> incr dst ~by:v name) (counters src);
    List.iter (fun (name, v) -> set_gauge dst name v) (gauges src);
    List.iter
      (fun (name, h) ->
        (* Bind the slot first: [hist_slot] may grow [dst.hists]. *)
        let slot = hist_slot dst ~edges:(Histogram.edges h) name in
        Histogram.absorb ~into:dst.hists.(slot) h)
      (histograms src);
    let offset = dst.next_sid in
    let shift sid = if sid = Span.no_parent then sid else sid + offset in
    dst.dropped_spans <-
      dst.dropped_spans + src.dropped_spans
      + Trace.absorb ~limit:dst.max_events
          ~map:(fun (s : Span.t) ->
            { s with Span.sid = shift s.Span.sid; parent = shift s.Span.parent })
          ~into:dst.spans src.spans;
    dst.next_sid <- dst.next_sid + src.next_sid
  end

(* ---- Snapshot ---- *)

module Snap = Snapshot

type obs_data = {
  od_counters : (string * int) list; (* sorted by name *)
  od_gauges : (string * float) list;
  od_histograms : (string * Histogram.t) list;
  od_dropped_spans : int;
  od_next_sid : int;
  od_ctx : int;
}

let snapshot ?(name = "obs.sink") t =
  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let counters = sorted (counters t) in
  let gauges = sorted (gauges t) in
  let histograms = sorted (histograms t) in
  Snap.make ~name ~version:2
    ~data:
      (Snap.pack
         {
           od_counters = counters;
           od_gauges = gauges;
           od_histograms = histograms;
           od_dropped_spans = t.dropped_spans;
           od_next_sid = t.next_sid;
           od_ctx = t.ctx;
         })
    [
      ("enabled", Snap.Bool t.enabled);
      ("counters", Snap.Int (List.length counters));
      ("gauges", Snap.Int (List.length gauges));
      ("histograms", Snap.Int (List.length histograms));
      ("spans", Snap.Int (Trace.length t.spans));
      ("dropped_spans", Snap.Int t.dropped_spans);
      ("next_sid", Snap.Int t.next_sid);
      ("ctx", Snap.Int t.ctx);
    ]
