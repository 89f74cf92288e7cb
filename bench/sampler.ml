(* A SIGPROF sampling profiler for one Experiment cell.

     dune build ./bench/sampler.exe
     ./_build/default/bench/sampler.exe --stack modular -n 3 --load 2000 \
         --size 1024 --measure 8 --sink metrics

   Every millisecond of process CPU time the kernel sends SIGPROF (the
   kernel's timer tick may deliver fewer; use [--repeat] for more). OCaml runs
   the handler at the interrupted code's next poll point (an allocation
   or a loop back-edge), where it takes the call stack and counts the
   innermost OCaml frame together with its caller. At exit the counts are
   printed as self samples by (frame, caller), most first, then summed
   by frame alone. [--repeat] reruns the cell for more samples; each run
   gets a fresh group, the sink is shared.

   Read the shares as directional, not exact: a function inlined into
   another is billed to the one it was inlined into, and a sample lands
   on the next poll point rather than the exact instruction. Frames have
   names only in a build that keeps debug information (dune's default
   dev profile does).

   [--alloc] runs the cell once with the timer off and prints its events,
   wall time and minor words per event and per adelivery (every process's
   adeliveries) instead: the per-cell allocation attribution. perfbench
   [paper]'s cells are [--warmup 1 --seed N] at n = 3 and 7. With
   [--sink trace] it also runs the cell on a metrics-only sink and prints
   the spans recorded and the minor words each cost (the traced run's
   words less the metrics-only run's, per span): the obs layer's share
   of the cell. *)

open Repro_core
open Repro_workload
module Obs = Repro_obs.Obs

let stack = ref "modular"
let n = ref 3
let load = ref 2000.0
let size = ref 1024
let warmup = ref 2.0
let measure = ref 8.0
let seed = ref 0
let sink = ref "metrics"
let top = ref 30
let repeat = ref 1
let alloc = ref false

let specs =
  [
    ("--stack", Arg.Set_string stack, "S modular | monolithic | indirect (default modular)");
    ("-n", Arg.Set_int n, "N group size (default 3)");
    ("--load", Arg.Set_float load, "R offered load, msgs/s, Poisson (default 2000)");
    ("--size", Arg.Set_int size, "B payload bytes (default 1024)");
    ("--warmup", Arg.Set_float warmup, "S virtual warm-up seconds (default 2)");
    ("--measure", Arg.Set_float measure, "S virtual measured seconds (default 8)");
    ("--seed", Arg.Set_int seed, "N run seed (default 0)");
    ( "--sink",
      Arg.Symbol ([ "none"; "metrics"; "trace" ], fun s -> sink := s),
      " observability: none, counters only (default), or counters and spans" );
    ("--top", Arg.Set_int top, "K rows printed per table (default 30)");
    ("--repeat", Arg.Set_int repeat, "K run the cell K times, for more samples (default 1)");
    ( "--alloc",
      Arg.Set alloc,
      " run the cell once unsampled; print minor words per event and per adelivery" );
  ]

let usage = "sampler.exe [options]: profile one Experiment cell by SIGPROF sampling"

let kind_of_string = function
  | "modular" -> Replica.Modular
  | "monolithic" -> Replica.Monolithic
  | "indirect" -> Replica.Indirect
  | s -> raise (Arg.Bad ("unknown stack " ^ s))

(* The handler's own frames and the signal machinery sit above the
   interrupted code; they are skipped by file and module name. *)
let own_frame slot =
  let in_file f =
    match Printexc.Slot.location slot with
    | Some loc -> String.equal (Filename.basename loc.Printexc.filename) f
    | None -> false
  in
  let in_module m =
    match Printexc.Slot.name slot with
    | Some name -> String.starts_with ~prefix:m name
    | None -> false
  in
  in_file "sampler.ml" || in_module "Stdlib__Sys" || in_module "Stdlib__Printexc"

let frame_name slot =
  match (Printexc.Slot.name slot, Printexc.Slot.location slot) with
  | Some name, _ -> name
  | None, Some loc -> Printf.sprintf "%s:%d" loc.Printexc.filename loc.Printexc.line_number
  | None, None -> "?"

let print_table ~title ~total rows =
  Printf.printf "\n%s (%d samples)\n" title total;
  let rows = List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb) rows in
  List.iteri
    (fun i (key, count) ->
      if i < !top then
        Printf.printf "%6d %5.1f%%  %s\n" count
          (100.0 *. float_of_int count /. float_of_int (max 1 total))
          key)
    rows

let alloc_report ~obs config =
  let group = ref None in
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let r = Experiment.run ~obs ~on_group:(fun g -> group := Some g) config in
  let words = Gc.minor_words () -. w0 and wall = Unix.gettimeofday () -. t0 in
  let adeliveries =
    match !group with
    | Some g -> Array.fold_left ( + ) 0 (Group.delivered_counts g)
    | None -> 0
  in
  let events = r.Experiment.events_executed in
  Printf.printf
    "%s n=%d load=%.0f size=%d seed=%d: %d events, %.3f s wall, %.1f M minor words, %.1f \
     words/event, %d adeliveries, %.1f words/adelivery\n"
    !stack !n !load !size !seed events wall (words /. 1e6)
    (words /. float_of_int (max 1 events))
    adeliveries
    (words /. float_of_int (max 1 adeliveries));
  if Obs.tracing obs then begin
    (* Recording never perturbs a run, so the same cell on a metrics-only
       sink executes the same events: the difference is the spans'. *)
    let w1 = Gc.minor_words () in
    ignore (Experiment.run ~obs:(Obs.create ~max_events:0 ()) config);
    let untraced = Gc.minor_words () -. w1 in
    let spans = Obs.span_count obs in
    Printf.printf "%d spans recorded, %.1f minor words/span (less a metrics-only run)\n" spans
      ((words -. untraced) /. float_of_int (max 1 spans))
  end

let () =
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("stray argument " ^ a))) usage;
  let kind = kind_of_string !stack in
  let obs =
    match !sink with
    | "none" -> Obs.noop
    | "trace" -> Obs.create ()
    | _ -> Obs.create ~max_events:0 ()
  in
  let config =
    Experiment.config ~kind ~n:!n ~offered_load:!load ~size:!size ~warmup_s:!warmup
      ~measure_s:!measure ~seed:!seed ~arrival:Generator.Poisson ()
  in
  if !alloc then begin
    alloc_report ~obs config;
    exit 0
  end;
  let pairs : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let total = ref 0 in
  let on_sample _ =
    let slots =
      match Printexc.backtrace_slots (Printexc.get_callstack 16) with
      | Some s -> Array.to_list s
      | None -> []
    in
    let rec interrupted = function
      | s :: rest when own_frame s -> interrupted rest
      | l -> l
    in
    let key =
      match interrupted slots with
      | [] -> "? <- ?"
      | [ f ] -> frame_name f ^ " <- ?"
      | f :: caller :: _ -> frame_name f ^ " <- " ^ frame_name caller
    in
    incr total;
    Hashtbl.replace pairs key (1 + Option.value ~default:0 (Hashtbl.find_opt pairs key))
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  let timer on = { Unix.it_interval = on; it_value = on } in
  let t0 = Unix.gettimeofday () in
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.001));
  let events = ref 0 in
  for _ = 1 to max 1 !repeat do
    events := !events + (Experiment.run ~obs config).Experiment.events_executed
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.0));
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  Printf.printf "%s n=%d load=%.0f size=%d, %d run(s): %d events in %.2f s wall\n" !stack
    !n !load !size (max 1 !repeat) !events
    (Unix.gettimeofday () -. t0);
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) pairs [] in
  print_table ~title:"self samples by (frame <- caller)" ~total:!total rows;
  let frames : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (key, v) ->
      let frame =
        match String.index_opt key ' ' with Some i -> String.sub key 0 i | None -> key
      in
      Hashtbl.replace frames frame (v + Option.value ~default:0 (Hashtbl.find_opt frames frame)))
    rows;
  print_table ~title:"self samples by frame" ~total:!total
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) frames [])
