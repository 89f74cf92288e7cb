(* Time-travel driver: whole-world snapshot frames, deterministic resume,
   and divergence diagnostics over a recorded frame log.

   The design splits every module's state in two:

   - The *data plane* — counters, tables, queues of values — which each
     module exposes through its [snapshot]/[restore] pair as a
     {!Repro_sim.Snapshot.section}. Sections are encoded with the
     hand-rolled codec, so frame *metadata* stays readable across rebuilds
     of the binary; [repro bisect] works from metadata alone.

   - The *control plane* — pending events, armed timers, subscriber
     callbacks — which is inherently closures. It travels in the frame's
     *world blob*: one [Marshal.to_string root [Closures]] of the whole
     {!World.t}. Marshal preserves sharing within a single call, so the
     unmarshaled copy is a self-consistent world whose queued events
     reference exactly the records its tables hold; the copy *becomes*
     the live world on resume. The price is that blobs are pinned to the
     binary that wrote them (the header records the executable digest and
     resume checks it).

   Frames are only ever taken *between* engine slices, never inside the
   event loop: the recorder cuts each [run_until] stretch at frame
   boundaries, which is event-identical to running the stretch in one
   piece (the calendar queue pops the same (time, seq) order either way).
   With [--snapshot-every 0] no frame is taken and no counter is bumped,
   so the run is bit-for-bit the unrecorded one. *)

open Repro_sim
open Repro_core
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl
module Experiment = Repro_workload.Experiment
module Generator = Repro_workload.Generator
module Campaign = Repro_fault.Campaign
module Monitor = Repro_fault.Monitor
module Schedule = Repro_fault.Schedule

exception Replay_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Replay_error s)) fmt

(* Metric names whose values legitimately differ between a t=0 run and a
   resumed suffix (a resumed run restores once and stops taking frames).
   [verify] strips these lines before diffing observables — the same
   contract as the timing-class [bench_meta] fields ([wallclock_s] …)
   that [@parallel-smoke] strips. *)
let snapshot_metrics = [ "snapshots_taken"; "snapshot_bytes"; "restore_count" ]

let is_snapshot_metric_line line =
  List.exists
    (fun m ->
      let needle = Printf.sprintf "\"name\":\"%s\"" m in
      let nl = String.length needle and ll = String.length line in
      let rec scan i = i + nl <= ll && (String.sub line i nl = needle || scan (i + 1)) in
      scan 0)
    snapshot_metrics

(* ---- The world ---- *)

module World = struct
  type shape = Report of Experiment.staged | Nemesis of Campaign.staged

  type t = {
    shape : shape;
    obs : Obs.t;
    mutable milestones : (Time.t * (unit -> unit)) list; (* remaining *)
    mutable finished : bool;
    mutable report : string; (* final report text, set by [finish] *)
  }

  let make shape obs milestones = { shape; obs; milestones; finished = false; report = "" }

  let group w =
    match w.shape with
    | Report st -> st.Experiment.st_group
    | Nemesis st -> st.Campaign.ca_group

  let engine w = Group.engine (group w)

  (* Every module's section, whole world: the group's composition plus
     the drivers living outside it (workload generator, fault monitor)
     and the observability sink itself. *)
  let sections w =
    Group.sections (group w)
    @ (match w.shape with
      | Report st -> [ Generator.snapshot st.Experiment.st_generator ]
      | Nemesis st ->
        [
          Generator.snapshot st.Campaign.ca_generator;
          Monitor.snapshot st.Campaign.ca_monitor;
        ])
    @ [ Obs.snapshot w.obs ]

  let finish w =
    if not w.finished then begin
      w.finished <- true;
      match w.shape with
      | Report st ->
        let _latencies, r = st.Experiment.st_result () in
        w.report <- Fmt.str "%a" Experiment.pp_result r
      | Nemesis st ->
        let v = st.Campaign.ca_result () in
        let violations =
          List.map
            (fun viol -> Fmt.str "%a" Monitor.pp_violation viol)
            (Monitor.violations st.Campaign.ca_monitor)
        in
        w.report <-
          String.concat "\n" (Campaign.verdict_line v :: violations)
    end

  (* The observable byte streams replay equality is defined over. *)
  let observables w =
    if not w.finished then fail "observables requested before the run finished";
    let cat lines = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
    [
      ("metrics", cat (Jsonl.metric_lines w.obs));
      ("trace", cat (Jsonl.span_lines w.obs));
      ("report", w.report ^ "\n");
    ]
end

(* Run the remaining milestones, slicing each stretch at frame
   boundaries. [every_ns = 0] means no frames: the milestones run back to
   back, which is exactly [Experiment.run_raw] / [Campaign.run_one]. *)
let drive w ~every_ns ~take_frame =
  let engine = World.engine w in
  let next_frame now =
    if every_ns <= 0 then None
    else
      let k = (Time.to_ns now / every_ns) + 1 in
      Some (Time.of_ns (k * every_ns))
  in
  let rec go () =
    match w.World.milestones with
    | [] -> ()
    | (at, act) :: rest -> (
      match next_frame (Engine.now engine) with
      | Some f when Time.(f <= at) ->
        Engine.run_until engine f;
        take_frame ();
        go ()
      | _ ->
        Engine.run_until engine at;
        act ();
        w.World.milestones <- rest;
        go ())
  in
  go ()

(* ---- Frame log ---- *)

type frame = {
  f_index : int;
  f_at_ns : int;
  f_sections : Snapshot.section list;
  f_blob : string; (* Marshal [Closures] of the World.t root *)
}

type log = {
  l_path : string;
  l_digest : string; (* Digest.file of the writing executable *)
  l_descriptor : string; (* one JSON object describing the run *)
  l_every_ns : int;
  l_frames : frame array;
  l_final_at_ns : int;
  l_final_sections : Snapshot.section list;
  l_observables : (string * string) list;
}

let log_magic = "REPRO-RLOG\x01"

let self_digest () = Digest.file Sys.executable_name

let add_i64 buf i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 i;
  Buffer.add_bytes buf b

let add_int buf i = add_i64 buf (Int64.of_int i)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int }

let need r n = if r.pos + n > String.length r.src then fail "truncated frame log"

let read_int r =
  need r 8;
  let i = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  Int64.to_int i

let read_str r =
  let n = read_int r in
  if n < 0 then fail "corrupt frame log (negative length)";
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_byte r =
  need r 1;
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let write_header oc ~descriptor ~every_ns =
  let buf = Buffer.create 256 in
  Buffer.add_string buf log_magic;
  add_str buf (self_digest ());
  add_str buf descriptor;
  add_int buf every_ns;
  Buffer.output_buffer oc buf

let write_frame oc ~index ~at_ns ~meta ~blob =
  let buf = Buffer.create (String.length meta + String.length blob + 64) in
  Buffer.add_char buf 'F';
  add_int buf index;
  add_int buf at_ns;
  add_str buf meta;
  add_str buf blob;
  Buffer.output_buffer oc buf

let write_trailer oc ~at_ns ~meta ~observables =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf 'T';
  add_int buf at_ns;
  add_str buf meta;
  add_int buf (List.length observables);
  List.iter
    (fun (name, bytes) ->
      add_str buf name;
      add_str buf bytes)
    observables;
  Buffer.output_buffer oc buf

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let r = { src; pos = 0 } in
  need r (String.length log_magic);
  if String.sub src 0 (String.length log_magic) <> log_magic then
    fail "%s is not a repro frame log" path;
  r.pos <- String.length log_magic;
  let digest = read_str r in
  let descriptor = read_str r in
  let every_ns = read_int r in
  let frames = ref [] in
  let trailer = ref None in
  let rec records () =
    if r.pos < String.length src then begin
      (match read_byte r with
      | 'F' ->
        let f_index = read_int r in
        let f_at_ns = read_int r in
        let meta = read_str r in
        let f_blob = read_str r in
        frames := { f_index; f_at_ns; f_sections = Snapshot.decode_sections meta; f_blob } :: !frames
      | 'T' ->
        let at_ns = read_int r in
        let meta = read_str r in
        let n = read_int r in
        let observables =
          List.init n (fun _ ->
              let name = read_str r in
              let bytes = read_str r in
              (name, bytes))
        in
        trailer := Some (at_ns, Snapshot.decode_sections meta, observables)
      | c -> fail "%s: unknown record tag %C" path c);
      records ()
    end
  in
  records ();
  match !trailer with
  | None -> fail "%s: no trailer — the recording did not run to completion" path
  | Some (l_final_at_ns, l_final_sections, l_observables) ->
    {
      l_path = path;
      l_digest = digest;
      l_descriptor = descriptor;
      l_every_ns = every_ns;
      l_frames = Array.of_list (List.rev !frames);
      l_final_at_ns;
      l_final_sections;
      l_observables;
    }

(* ---- Recording ---- *)

(* Record a staged run to [path], one frame every [every_ns] of virtual
   time plus frame 0 at the start, and the trailer with the final
   sections and observable bytes. Returns the finished world. *)
let record world ~every_ns ~descriptor ~path =
  if every_ns <= 0 then invalid_arg "Replay.record: every_ns must be > 0";
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  write_header oc ~descriptor ~every_ns;
  let index = ref 0 in
  let engine = World.engine world in
  let take_frame () =
    Obs.incr world.World.obs "snapshots_taken";
    let sections = World.sections world in
    let meta = Snapshot.encode_sections sections in
    let blob = Marshal.to_string world [ Marshal.Closures ] in
    Obs.incr world.World.obs ~by:(String.length meta + String.length blob)
      "snapshot_bytes";
    write_frame oc ~index:!index ~at_ns:(Time.to_ns (Engine.now engine)) ~meta ~blob;
    incr index
  in
  take_frame ();
  drive world ~every_ns ~take_frame;
  World.finish world;
  write_trailer oc
    ~at_ns:(Time.to_ns (Engine.now engine))
    ~meta:(Snapshot.encode_sections (World.sections world))
    ~observables:(World.observables world);
  world

(* ---- Resume ---- *)

let frame_count log = Array.length log.l_frames

let check_frame log k =
  if k < 0 || k >= frame_count log then
    fail "%s has frames 0..%d, not %d" log.l_path (frame_count log - 1) k

let resume log k =
  check_frame log k;
  if log.l_digest <> self_digest () then
    fail
      "%s was recorded by a different build of this binary; world blobs carry \
       closures and cannot cross builds (frame metadata still can: try repro \
       bisect)"
      log.l_path;
  let world : World.t = Marshal.from_string log.l_frames.(k).f_blob 0 in
  Obs.incr world.World.obs "restore_count";
  world

(* Resume from frame [k] and run the suffix to completion, taking no new
   frames. Returns the finished world. *)
let replay log ~from_frame =
  let world = resume log from_frame in
  drive world ~every_ns:0 ~take_frame:(fun () -> ());
  World.finish world;
  world

(* ---- Verification ---- *)

type divergence = { d_frame : int; d_stream : string; d_detail : string }

let strip_snapshot_lines bytes =
  String.split_on_char '\n' bytes
  |> List.filter (fun l -> not (is_snapshot_metric_line l))
  |> String.concat "\n"

let first_diff a b =
  let la = String.length a and lb = String.length b in
  let rec go i = if i < la && i < lb && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let diff_observables ~frame base ours =
  List.concat_map
    (fun (stream, base_bytes) ->
      let base_bytes = strip_snapshot_lines base_bytes in
      match List.assoc_opt stream ours with
      | None ->
        [ { d_frame = frame; d_stream = stream; d_detail = "stream missing from replay" } ]
      | Some got ->
        let got = strip_snapshot_lines got in
        if String.equal base_bytes got then []
        else
          let i = first_diff base_bytes got in
          [
            {
              d_frame = frame;
              d_stream = stream;
              d_detail =
                Printf.sprintf
                  "first divergence at byte %d (recorded %d bytes, replayed %d)" i
                  (String.length base_bytes) (String.length got);
            };
          ])
    base

(* Re-run the suffix from every frame and diff the observable bytes
   against the recording's trailer. An empty list means every frame's
   suffix reproduced the run byte-identically. *)
let verify ?(progress = fun ~frame:_ ~frames:_ -> ()) log =
  let frames = frame_count log in
  List.concat_map
    (fun k ->
      progress ~frame:k ~frames;
      let world = replay log ~from_frame:k in
      diff_observables ~frame:k log.l_observables (World.observables world))
    (List.init frames Fun.id)

(* ---- Divergence diagnostics (bisect) ---- *)

let violations_of sections =
  List.find_opt (fun (s : Snapshot.section) -> s.name = "fault.monitor") sections
  |> Option.map (fun s -> Snapshot.get_int s "violations")

type bisect_report = {
  b_invariant : string;
  b_process : int; (* 1-based, as printed *)
  b_at_ms : float;
  b_detail : string;
  b_from_frame : int;
  b_to_frame : int option; (* None: window ends at the trailer *)
  b_from_ms : float;
  b_to_ms : float;
  b_diff : Snapshot.section_diff list;
  b_window_spans : string list; (* span JSONL lines inside the window *)
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* Binary-search the frame log for the first frame whose monitor section
   already counts a violation; the causal window is (previous frame, that
   frame]. Returns [None] if the recorded run never violated. *)
let bisect log =
  let frames = log.l_frames in
  let viol k =
    match violations_of frames.(k).f_sections with
    | Some v -> v
    | None -> fail "%s: frame %d has no fault.monitor section — record the run with repro nemesis" log.l_path k
  in
  let final =
    match violations_of log.l_final_sections with
    | Some v -> v
    | None -> fail "%s: trailer has no fault.monitor section — record the run with repro nemesis" log.l_path
  in
  if final = 0 then None
  else begin
    let n = Array.length frames in
    if n = 0 then fail "%s has no frames" log.l_path;
    (* Invariant: violations are monotone in time. Find the first bad
       frame, if any frame is bad at all. *)
    let first_bad =
      if viol (n - 1) = 0 then None
      else begin
        let lo = ref 0 and hi = ref (n - 1) in
        (* viol !hi > 0; find least k with viol k > 0 *)
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if viol mid > 0 then hi := mid else lo := mid + 1
        done;
        Some !lo
      end
    in
    let from_frame, to_frame, bad_sections, to_ns =
      match first_bad with
      | Some 0 ->
        fail "%s: frame 0 already carries a violation; nothing to bisect" log.l_path
      | Some k -> (k - 1, Some k, frames.(k).f_sections, frames.(k).f_at_ns)
      | None ->
        (* The violation happened after the last frame: the window runs to
           the trailer. *)
        (n - 1, None, log.l_final_sections, log.l_final_at_ns)
    in
    let good = frames.(from_frame) in
    let diff = Snapshot.diff_sections good.f_sections bad_sections in
    (* The violation record and the window's causal spans come from the
       first-bad world (the violation is in (t_good, t_bad], and the
       monitor/trace state rides the blob). *)
    let world =
      match to_frame with
      | Some k -> resume log k
      | None -> replay log ~from_frame
    in
    let monitor =
      match world.World.shape with
      | World.Nemesis st -> st.Campaign.ca_monitor
      | World.Report _ -> fail "%s records a report run, not a monitored one" log.l_path
    in
    let v =
      match Monitor.first_violation monitor with
      | Some v -> v
      | None -> fail "monitor lost its violation on resume (codec bug)"
    in
    let from_t = Time.of_ns good.f_at_ns in
    let to_t = Time.of_ns to_ns in
    let window_spans =
      Obs.spans world.World.obs
      |> List.filter (fun (s : Obs.Span.t) ->
             Time.(s.Obs.Span.at > from_t) && Time.(s.Obs.Span.at <= to_t))
      |> List.map Jsonl.span_line
    in
    Some
      {
        b_invariant = Monitor.invariant_name v.Monitor.invariant;
        b_process = v.Monitor.at_process + 1;
        b_at_ms = Time.to_ms_float v.Monitor.at;
        b_detail = v.Monitor.detail;
        b_from_frame = from_frame;
        b_to_frame = to_frame;
        b_from_ms = ms_of_ns good.f_at_ns;
        b_to_ms = ms_of_ns to_ns;
        b_diff = diff;
        b_window_spans = window_spans;
      }
  end

let bisect_report_lines r =
  let summary =
    Jsonl.to_string
      (Jsonl.Obj
         [
           ("type", Jsonl.String "bisect");
           ("invariant", Jsonl.String r.b_invariant);
           ("process", Jsonl.Int r.b_process);
           ("at_ms", Jsonl.Float r.b_at_ms);
           ("detail", Jsonl.String r.b_detail);
           ("from_frame", Jsonl.Int r.b_from_frame);
           ( "to_frame",
             match r.b_to_frame with Some k -> Jsonl.Int k | None -> Jsonl.Null );
           ("window_from_ms", Jsonl.Float r.b_from_ms);
           ("window_to_ms", Jsonl.Float r.b_to_ms);
           ("changed_sections", Jsonl.Int (List.length r.b_diff));
           ("window_spans", Jsonl.Int (List.length r.b_window_spans));
         ])
  in
  (summary :: List.map Snapshot.section_diff_to_json r.b_diff) @ r.b_window_spans

(* ---- Recording entry points (what the CLI drives) ---- *)

let report_descriptor (config : Experiment.config) =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("mode", Jsonl.String "report");
         ("stack", Jsonl.String (Experiment.kind_name config.Experiment.kind));
         ("n", Jsonl.Int config.Experiment.n);
         ("load", Jsonl.Float config.Experiment.offered_load);
         ("size", Jsonl.Int config.Experiment.size);
         ("warmup_s", Jsonl.Float config.Experiment.warmup_s);
         ("measure_s", Jsonl.Float config.Experiment.measure_s);
         ("seed", Jsonl.Int config.Experiment.seed);
       ])

let nemesis_descriptor ~kind ~n ~seed ~load ~settle_s ~schedule =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("mode", Jsonl.String "nemesis");
         ("stack", Jsonl.String (Experiment.kind_name kind));
         ("n", Jsonl.Int n);
         ("seed", Jsonl.Int seed);
         ("load", Jsonl.Float load);
         ("settle_s", Jsonl.Float settle_s);
         ("plan", Jsonl.String (Schedule.to_string schedule));
       ])

let record_report ?(obs = Obs.noop) ~every_ns ~path config =
  let st = Experiment.stage ~obs config in
  let world =
    World.make (World.Report st) obs st.Experiment.st_milestones
  in
  let (_ : World.t) =
    record world ~every_ns ~descriptor:(report_descriptor config) ~path
  in
  (* [st_result] is a pure recomputation from the window samples; calling
     it again after [World.finish] yields the very same value. *)
  st.Experiment.st_result ()

let record_nemesis ?(obs = Obs.noop) ~kind ~n ~seed ~schedule ~offered_load ~settle_s
    ~every_ns ~path () =
  let st = Campaign.stage ~kind ~n ~seed ~schedule ~offered_load ~settle_s ~obs () in
  let world = World.make (World.Nemesis st) obs st.Campaign.ca_milestones in
  let (_ : World.t) =
    record world ~every_ns
      ~descriptor:
        (nemesis_descriptor ~kind ~n ~seed ~load:offered_load ~settle_s ~schedule)
      ~path
  in
  st.Campaign.ca_result ()

(* ---- Log accessors for the CLI ---- *)

type world = World.t

let descriptor log = log.l_descriptor
let every_ns log = log.l_every_ns
let frame_times log =
  Array.to_list (Array.map (fun f -> (f.f_index, f.f_at_ns)) log.l_frames)
let final_at_ns log = log.l_final_at_ns
let report_text (w : World.t) = w.World.report
let observables = World.observables
