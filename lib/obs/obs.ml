open Repro_sim
module Span = Span

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]

let layer_name = Span.layer_name
let all_layers : layer list = Span.all_layers

type t = {
  enabled : bool;
  mutable now : unit -> Time.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
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
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
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

(* [Hashtbl.find] + [Not_found] rather than [find_opt]: the option would
   be a fresh allocation per bump, and counters are bumped on every wire
   copy when a sink is enabled. *)
let incr t ?(by = 1) name =
  if t.enabled then
    match Hashtbl.find t.counters name with
    | slot -> slot := !slot + by
    | exception Not_found -> Hashtbl.add t.counters name (ref by)

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some slot -> !slot | None -> 0

let counters t =
  Hashtbl.fold (fun name slot acc -> (name, !slot) :: acc) t.counters []
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

let histogram t ?edges name =
  match Hashtbl.find t.histograms name with
  | h -> h
  | exception Not_found ->
    let h = Histogram.create ?edges () in
    Hashtbl.add t.histograms name h;
    h

let observe t ?edges name v = if t.enabled then Histogram.observe (histogram t ?edges name) v

let observe_since t ?edges name since =
  if t.enabled then
    let at = t.now () in
    (* A sink whose clock was never wired (or an event stamped before the
       clock advanced) must not crash the protocol it observes. *)
    if Time.(at >= since) then
      Histogram.observe_span (histogram t ?edges name) (Time.diff at since)

let histogram_summary t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> Some (Histogram.summary h)
  | None -> None

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- Causal spans ----

   Ids count up from 1 whether or not the record is retained, so a trace
   truncated by [max_events] still has globally consistent parent links
   (children of a dropped span reference an id that is simply absent). *)

let span t ?parent ~pid ~layer ~phase ?(detail = "") () =
  if not t.enabled then Span.no_parent
  else begin
    let parent = match parent with Some p -> p | None -> t.ctx in
    let sid = t.next_sid + 1 in
    t.next_sid <- sid;
    if Trace.length t.spans < t.max_events then
      Trace.record t.spans { Span.sid; parent; at = t.now (); pid; layer; phase; detail }
    else t.dropped_spans <- t.dropped_spans + 1;
    sid
  end

let span_ctx t = if t.enabled then t.ctx else Span.no_parent
let set_span_ctx t sid = if t.enabled then t.ctx <- sid

(* The ambient context is only ever consumed by [span] as a default
   parent, and [span] records nothing unless [tracing]. So on a
   metrics-only sink ([max_events = 0], which includes [noop]) the
   save/set/restore — and its [Fun.protect] frame — would be dead work
   on every delivered message; skip it. *)
let with_span_ctx t sid f =
  if t.max_events = 0 then f ()
  else begin
    let saved = t.ctx in
    t.ctx <- sid;
    Fun.protect ~finally:(fun () -> t.ctx <- saved) f
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
        Histogram.absorb ~into:(histogram dst ~edges:(Histogram.edges h) name) h)
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

let restore ?(name = "obs.sink") t s =
  Snap.check s ~name ~version:2;
  let (d : obs_data) = Snap.unpack_data s in
  Hashtbl.reset t.counters;
  List.iter (fun (k, v) -> Hashtbl.add t.counters k (ref v)) d.od_counters;
  Hashtbl.reset t.gauges;
  List.iter (fun (k, v) -> Hashtbl.add t.gauges k (ref v)) d.od_gauges;
  Hashtbl.reset t.histograms;
  List.iter (fun (k, h) -> Hashtbl.add t.histograms k h) d.od_histograms;
  t.dropped_spans <- d.od_dropped_spans;
  t.next_sid <- d.od_next_sid;
  t.ctx <- d.od_ctx
(* The span buffer (and the clock closure) rides the world blob. *)
