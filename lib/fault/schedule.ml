open Repro_sim
open Repro_net

type action =
  | Crash of Pid.t
  | Crash_after_sends of Pid.t * int
  | Cut of Pid.t * Pid.t
  | Heal of Pid.t * Pid.t
  | Partition of Pid.t list list
  | Heal_all
  | Loss_rate of float
  | Delay_spike of Time.span
  | Adv_drop_budget of int
  | Corrupt_rate of float
  | Duplicate_rate of float
  | Reorder_window of Time.span
  | Equivocate_rate of float

type step = { at : Time.span; action : action }
type t = step list

(* ---- Pretty-printing / serialization ---- *)

(* Spans print with the coarsest exact unit so plans stay readable and
   round-trip bit-for-bit. *)
let span_to_string d =
  let ns = Time.span_to_ns d in
  if ns mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (ns / 1_000_000_000)
  else if ns mod 1_000_000 = 0 then Printf.sprintf "%dms" (ns / 1_000_000)
  else if ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
  else Printf.sprintf "%dns" ns

let pid_to_string p = Printf.sprintf "p%d" (p + 1)

(* Shortest decimal form that parses back to the same float, so plans
   round-trip bit-for-bit through the file syntax. *)
let float_to_string p =
  let s = Printf.sprintf "%g" p in
  if float_of_string s = p then s
  else
    let s = Printf.sprintf "%.12g" p in
    if float_of_string s = p then s else Printf.sprintf "%.17g" p

let action_to_string = function
  | Crash p -> "crash " ^ pid_to_string p
  | Crash_after_sends (p, k) ->
    Printf.sprintf "crash-after-sends %s %d" (pid_to_string p) k
  | Cut (src, dst) -> Printf.sprintf "cut %s %s" (pid_to_string src) (pid_to_string dst)
  | Heal (src, dst) ->
    Printf.sprintf "heal %s %s" (pid_to_string src) (pid_to_string dst)
  | Partition blocks ->
    "partition "
    ^ String.concat " | "
        (List.map (fun b -> String.concat " " (List.map pid_to_string b)) blocks)
  | Heal_all -> "heal-all"
  | Loss_rate p -> "loss " ^ float_to_string p
  | Delay_spike d -> "delay " ^ span_to_string d
  | Adv_drop_budget d -> Printf.sprintf "adv-drop-budget %d" d
  | Corrupt_rate p -> "corrupt " ^ float_to_string p
  | Duplicate_rate p -> "duplicate " ^ float_to_string p
  | Reorder_window w -> "reorder " ^ span_to_string w
  | Equivocate_rate p -> "equivocate " ^ float_to_string p

let step_to_string s = Printf.sprintf "at %s %s" (span_to_string s.at) (action_to_string s.action)
let to_string t = String.concat "\n" (List.map step_to_string t) ^ if t = [] then "" else "\n"
let pp_step ppf s = Fmt.string ppf (step_to_string s)
let pp ppf t = Fmt.(list ~sep:(any "; ") pp_step) ppf t

(* ---- Parsing ---- *)

(* Durations may be fractional ([1.5ms]); the value is computed in integer
   nanoseconds (whole·unit + frac·unit/10^digits) so no float rounding can
   leak into round-trips. Fractions that land below 1 ns are rejected
   rather than silently truncated. *)
let parse_span s =
  let len = String.length s in
  let digits_end from =
    let rec go i = if i < len && s.[i] >= '0' && s.[i] <= '9' then go (i + 1) else i in
    go from
  in
  let whole_end = digits_end 0 in
  let frac_start, frac_end =
    if whole_end < len && s.[whole_end] = '.' then
      (whole_end + 1, digits_end (whole_end + 1))
    else (whole_end, whole_end)
  in
  let had_dot = frac_start <> whole_end in
  if whole_end = 0 || (had_dot && frac_end = frac_start) then
    Error (Printf.sprintf "expected a duration, got %S" s)
  else
    let mult =
      match String.sub s frac_end (len - frac_end) with
      | "ns" -> Some 1
      | "us" -> Some 1_000
      | "ms" -> Some 1_000_000
      | "s" -> Some 1_000_000_000
      | _ -> None
    in
    match mult with
    | None -> Error (Printf.sprintf "unknown time unit in %S (ns|us|ms|s)" s)
    | Some m ->
      let whole = int_of_string (String.sub s 0 whole_end) in
      if frac_end = frac_start then Ok (Time.span_ns (whole * m))
      else
        let frac_digits = frac_end - frac_start in
        let pow10 =
          let rec go acc k = if k = 0 then acc else go (acc * 10) (k - 1) in
          go 1 frac_digits
        in
        if m mod pow10 <> 0 then
          Error (Printf.sprintf "duration %S is finer than 1ns" s)
        else
          let frac = int_of_string (String.sub s frac_start frac_digits) in
          Ok (Time.span_ns ((whole * m) + (frac * (m / pow10))))

let parse_pid s =
  let len = String.length s in
  if len >= 2 && s.[0] = 'p' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some k when k >= 1 -> Ok (k - 1)
    | _ -> Error (Printf.sprintf "bad process name %S (use p1, p2, …)" s)
  else Error (Printf.sprintf "bad process name %S (use p1, p2, …)" s)

let parse_action words =
  let pid2 name src dst k =
    match (parse_pid src, parse_pid dst) with
    | Ok a, Ok b -> Ok (k a b)
    | (Error _ as e), _ | _, (Error _ as e) ->
      (match e with Error e -> Error (name ^ ": " ^ e) | Ok _ -> assert false)
  in
  match words with
  | [ "crash"; p ] -> Result.map (fun p -> Crash p) (parse_pid p)
  | [ "crash-after-sends"; p; k ] -> (
    match (parse_pid p, int_of_string_opt k) with
    | Ok p, Some k -> Ok (Crash_after_sends (p, k))
    | Error e, _ -> Error e
    | _, None -> Error (Printf.sprintf "crash-after-sends: bad send count %S" k))
  | [ "cut"; src; dst ] -> pid2 "cut" src dst (fun a b -> Cut (a, b))
  | [ "heal"; src; dst ] -> pid2 "heal" src dst (fun a b -> Heal (a, b))
  | [ "heal-all" ] -> Ok Heal_all
  | [ "loss"; p ] -> (
    match float_of_string_opt p with
    | Some p -> Ok (Loss_rate p)
    | None -> Error (Printf.sprintf "loss: bad probability %S" p))
  | [ "delay"; d ] -> Result.map (fun d -> Delay_spike d) (parse_span d)
  | [ "adv-drop-budget"; d ] -> (
    match int_of_string_opt d with
    | Some d -> Ok (Adv_drop_budget d)
    | None -> Error (Printf.sprintf "adv-drop-budget: bad copy count %S" d))
  | [ "corrupt"; p ] -> (
    match float_of_string_opt p with
    | Some p -> Ok (Corrupt_rate p)
    | None -> Error (Printf.sprintf "corrupt: bad probability %S" p))
  | [ "duplicate"; p ] -> (
    match float_of_string_opt p with
    | Some p -> Ok (Duplicate_rate p)
    | None -> Error (Printf.sprintf "duplicate: bad probability %S" p))
  | [ "reorder"; w ] -> Result.map (fun w -> Reorder_window w) (parse_span w)
  | [ "equivocate"; p ] -> (
    match float_of_string_opt p with
    | Some p -> Ok (Equivocate_rate p)
    | None -> Error (Printf.sprintf "equivocate: bad probability %S" p))
  | "partition" :: rest when rest <> [] ->
    let rec blocks acc cur = function
      | [] -> Ok (List.rev (List.rev cur :: acc))
      | "|" :: rest ->
        if cur = [] then Error "partition: empty block"
        else blocks (List.rev cur :: acc) [] rest
      | p :: rest -> (
        match parse_pid p with
        | Ok p -> blocks acc (p :: cur) rest
        | Error e -> Error ("partition: " ^ e))
    in
    Result.map (fun bs -> Partition bs) (blocks [] [] rest)
  | verb :: _ -> Error (Printf.sprintf "unknown action %S" verb)
  | [] -> Error "empty action"

let parse_line line =
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  with
  | "at" :: time :: action -> (
    match parse_span time with
    | Error e -> Error e
    | Ok at -> Result.map (fun action -> { at; action }) (parse_action action))
  | _ -> Error "expected 'at <time> <action>'"

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      if String.trim line = "" then go (lineno + 1) acc rest
      else (
        match parse_line line with
        | Ok step -> go (lineno + 1) (step :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go 1 [] lines

let load path =
  match
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read fault plan: %s" e)
  | text -> of_string text

(* ---- Validation ---- *)

let validate ~n t =
  let check_pid what p =
    if p < 0 || p >= n then
      Error (Printf.sprintf "%s: %s out of range for n=%d" what (pid_to_string p) n)
    else Ok ()
  in
  let check_action = function
    | Crash p -> check_pid "crash" p
    | Crash_after_sends (p, k) ->
      if k < 0 then Error "crash-after-sends: negative send count"
      else check_pid "crash-after-sends" p
    | Cut (src, dst) | Heal (src, dst) ->
      Result.bind (check_pid "cut/heal" src) (fun () -> check_pid "cut/heal" dst)
    | Partition blocks ->
      let listed = List.concat blocks in
      let rec all_ok = function
        | [] ->
          if List.length (List.sort_uniq compare listed) <> List.length listed then
            Error "partition: a process appears in two blocks"
          else Ok ()
        | p :: rest -> Result.bind (check_pid "partition" p) (fun () -> all_ok rest)
      in
      all_ok listed
    | Heal_all -> Ok ()
    | Loss_rate p ->
      if p < 0.0 || p >= 1.0 then
        Error (Printf.sprintf "loss: probability %g outside [0, 1)" p)
      else Ok ()
    | Delay_spike _ -> Ok ()
    | Adv_drop_budget d ->
      (* At least one copy of every multicast must survive, so the budget
         is capped below the n-1 remote copies of a broadcast. *)
      if d < 0 then Error "adv-drop-budget: negative copy count"
      else if d > n - 2 then
        Error
          (Printf.sprintf
             "adv-drop-budget: %d would suppress whole broadcasts for n=%d (max %d)"
             d n (n - 2))
      else Ok ()
    | Corrupt_rate p ->
      if p < 0.0 || p >= 1.0 then
        Error (Printf.sprintf "corrupt: probability %g outside [0, 1)" p)
      else Ok ()
    | Duplicate_rate p ->
      if p < 0.0 || p >= 1.0 then
        Error (Printf.sprintf "duplicate: probability %g outside [0, 1)" p)
      else Ok ()
    | Reorder_window w ->
      if Time.span_to_ns w < 0 then Error "reorder: negative window" else Ok ()
    | Equivocate_rate p ->
      if p < 0.0 || p >= 1.0 then
        Error (Printf.sprintf "equivocate: probability %g outside [0, 1)" p)
      else Ok ()
  in
  let rec go i prev = function
    | [] -> Ok t
    | step :: rest -> (
      if Time.span_to_ns step.at < Time.span_to_ns prev then
        Error
          (Printf.sprintf "step %d (%s): timestamps must be non-decreasing" i
             (step_to_string step))
      else
        match check_action step.action with
        | Error e -> Error (Printf.sprintf "step %d: %s" i e)
        | Ok () -> go (i + 1) step.at rest)
  in
  go 1 Time.span_zero t

(* ---- Helpers ---- *)

let crashed_pids t =
  List.filter_map
    (fun s ->
      match s.action with
      | Crash p | Crash_after_sends (p, _) -> Some p
      | _ -> None)
    t
  |> List.sort_uniq Pid.compare

let duration = function
  | [] -> Time.span_zero
  | t -> (List.nth t (List.length t - 1)).at

let drops_messages t =
  List.exists
    (fun s ->
      match s.action with
      | Cut _ | Partition _ -> true
      | Loss_rate p -> p > 0.0
      (* Of the adversary powers, only corruption turns into message loss
         (checksummed receivers discard tampered copies), so only it
         mounts the retransmitting channel. The others must not: the drop
         budget and equivocation act on wire-level multicasts, which the
         per-destination reliable channel replaces with point-to-point
         frames — mounting it would silently disarm them — while
         duplicated and reordered copies still arrive and are the
         protocols' own duplicate-suppression and asynchrony-tolerance to
         absorb. *)
      | Corrupt_rate p -> p > 0.0
      | Crash _ | Crash_after_sends _ | Heal _ | Heal_all | Delay_spike _
      | Adv_drop_budget _ | Duplicate_rate _ | Reorder_window _
      | Equivocate_rate _ ->
        false)
    t

let uses_adversary t =
  List.exists
    (fun s ->
      match s.action with
      | Adv_drop_budget _ | Corrupt_rate _ | Duplicate_rate _
      | Reorder_window _ | Equivocate_rate _ ->
        true
      | Crash _ | Crash_after_sends _ | Cut _ | Heal _ | Partition _ | Heal_all
      | Loss_rate _ | Delay_spike _ ->
        false)
    t

let equal a b = a = b

let rec is_subsequence sub ~of_ =
  match (sub, of_) with
  | [], _ -> true
  | _, [] -> false
  | s :: sub', o :: of_' ->
    if s = o then is_subsequence sub' ~of_:of_' else is_subsequence sub ~of_:of_'
