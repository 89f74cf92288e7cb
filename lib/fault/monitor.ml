open Repro_sim
open Repro_net
open Repro_core

type invariant =
  | Integrity
  | Total_order
  | Agreement
  | Validity
  | Liveness
  | Corruption
  | Equivocation

let invariant_name = function
  | Integrity -> "integrity"
  | Total_order -> "total-order"
  | Agreement -> "agreement"
  | Validity -> "validity"
  | Liveness -> "liveness"
  | Corruption -> "corruption"
  | Equivocation -> "equivocation"

type violation = {
  at : Time.t;
  invariant : invariant;
  at_process : Pid.t;
  detail : string;
}

type t = {
  n : int;
  seed : int;
  schedule : Schedule.t;
  (* Per-process delivery logs, newest first, plus counts for O(1) index. *)
  rev_logs : App_msg.id list array;
  counts : int array;
  seen : (App_msg.id, unit) Hashtbl.t array;
  (* The global order: the longest delivery sequence observed so far.
     Prefix compatibility of all logs is equivalent to each log being a
     prefix of this one, so every delivery checks one slot. *)
  mutable global : App_msg.id array;
  mutable global_len : int;
  (* First content fingerprint adelivered for each identity, anywhere in
     the group; a later delivery of the same identity with a different
     fingerprint is channel equivocation made visible. *)
  fingerprints : (App_msg.id, int * Pid.t) Hashtbl.t;
  mutable tampered_detected : int;
  mutable tampered_silent : int;
  mutable clock : unit -> Time.t;
  mutable admitted_of : Pid.t -> int option;
  mutable rev_violations : violation list;
}

let create ?(seed = 0) ?(schedule = []) ~n () =
  {
    n;
    seed;
    schedule;
    rev_logs = Array.make n [];
    counts = Array.make n 0;
    seen = Array.init n (fun _ -> Hashtbl.create 64);
    global = Array.make 64 { App_msg.origin = 0; seq = -1 };
    global_len = 0;
    fingerprints = Hashtbl.create 64;
    tampered_detected = 0;
    tampered_silent = 0;
    clock = (fun () -> Time.zero);
    admitted_of = (fun _ -> None);
    rev_violations = [];
  }

let violate t invariant at_process detail =
  t.rev_violations <-
    { at = t.clock (); invariant; at_process; detail } :: t.rev_violations

let global_push t id =
  if t.global_len = Array.length t.global then begin
    let bigger = Array.make (2 * t.global_len) id in
    Array.blit t.global 0 bigger 0 t.global_len;
    t.global <- bigger
  end;
  t.global.(t.global_len) <- id;
  t.global_len <- t.global_len + 1

let observe t ?fingerprint p id =
  if p < 0 || p >= t.n then invalid_arg "Monitor.observe: pid out of range";
  (* Equivocation agreement: every process adelivering an identity must
     see the same content fingerprint as the first process that did. *)
  (match fingerprint with
  | None -> ()
  | Some fp -> (
    match Hashtbl.find_opt t.fingerprints id with
    | None -> Hashtbl.replace t.fingerprints id (fp, p)
    | Some (fp0, p0) ->
      if fp <> fp0 then
        violate t Equivocation p
          (Fmt.str "%a delivered with fingerprint %d but %a saw %d"
             App_msg.pp_id id fp Pid.pp p0 fp0)));
  (* Integrity: no duplicate delivery at one process. *)
  if Hashtbl.mem t.seen.(p) id then
    violate t Integrity p (Fmt.str "%a delivered twice" App_msg.pp_id id)
  else Hashtbl.replace t.seen.(p) id ();
  (* Validity: the message must have been admitted by its origin. *)
  (if id.App_msg.origin < 0 || id.App_msg.origin >= t.n then
     violate t Validity p (Fmt.str "%a has no such origin" App_msg.pp_id id)
   else
     match t.admitted_of id.App_msg.origin with
     | Some admitted when id.App_msg.seq >= admitted ->
       violate t Validity p
         (Fmt.str "%a delivered but origin admitted only %d messages"
            App_msg.pp_id id admitted)
     | _ -> ());
  (* Total order: this log must stay a prefix of the global order. *)
  let i = t.counts.(p) in
  if i < t.global_len then begin
    if not (App_msg.equal_id t.global.(i) id) then
      violate t Total_order p
        (Fmt.str "position %d: delivered %a where the group order has %a" i
           App_msg.pp_id id App_msg.pp_id t.global.(i))
  end
  else global_push t id;
  t.rev_logs.(p) <- id :: t.rev_logs.(p);
  t.counts.(p) <- i + 1

(* Corruption detection: the simulator knows which copies were tampered
   (the [Tampered] envelope is an oracle a real system lacks), so the
   invariant is sharp — every tampered copy must be caught by checksums;
   one processed as genuine is a silent-corruption safety violation. *)
let note_tamper t p ~detected =
  if p < 0 || p >= t.n then invalid_arg "Monitor.note_tamper: pid out of range";
  if detected then t.tampered_detected <- t.tampered_detected + 1
  else begin
    t.tampered_silent <- t.tampered_silent + 1;
    violate t Corruption p "tampered copy processed as genuine"
  end

let tampered_detected t = t.tampered_detected
let tampered_silent t = t.tampered_silent

let attach t group =
  let engine = Group.engine group in
  t.clock <- (fun () -> Engine.now engine);
  t.admitted_of <- (fun p -> Some (Replica.admitted (Group.replica group p)));
  Group.on_delivery group (fun p (msg : App_msg.t) ->
      (* The payload size doubles as the content fingerprint: the
         adversary's alternate payloads differ exactly in size. *)
      observe t ~fingerprint:msg.size p msg.id);
  Group.on_tamper group (fun p ~detected -> note_tamper t p ~detected)

let check_final t ~correct ?(min_delivered = 1) () =
  List.iter
    (fun p ->
      if p < 0 || p >= t.n then invalid_arg "Monitor.check_final: pid out of range")
    correct;
  (* Uniform agreement among correct processes: online total order already
     guarantees prefix compatibility, so equality reduces to equal length. *)
  (match correct with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun p ->
        if t.counts.(p) <> t.counts.(first) then
          violate t Agreement p
            (Fmt.str "correct %a delivered %d messages but correct %a delivered %d"
               Pid.pp p t.counts.(p) Pid.pp first t.counts.(first)))
      rest);
  (* Liveness of the correct majority. *)
  if 2 * List.length correct > t.n then begin
    List.iter
      (fun p ->
        if t.counts.(p) < min_delivered then
          violate t Liveness p
            (Fmt.str "correct %a delivered %d < %d messages" Pid.pp p
               t.counts.(p) min_delivered))
      correct;
    (* Every message admitted by a correct origin must be delivered at every
       correct process; with agreement checked, membership in one correct
       log suffices. *)
    match correct with
    | [] -> ()
    | witness :: _ ->
      List.iter
        (fun origin ->
          match t.admitted_of origin with
          | None -> ()
          | Some admitted ->
            for seq = 0 to admitted - 1 do
              let id = { App_msg.origin; seq } in
              if not (Hashtbl.mem t.seen.(witness) id) then
                violate t Liveness witness
                  (Fmt.str "%a admitted by correct origin but never delivered"
                     App_msg.pp_id id)
            done)
        correct
  end

let violations t = List.rev t.rev_violations
let first_violation t = match violations t with [] -> None | v :: _ -> Some v

(* ---- Graceful-degradation classification ---- *)

type degradation = Live | Safe_stall | Safety_violation

let degradation_name = function
  | Live -> "live"
  | Safe_stall -> "safe-stall"
  | Safety_violation -> "safety-violation"

let classify t =
  let is_safety = function
    | Integrity | Total_order | Agreement | Validity | Corruption | Equivocation
      ->
      true
    | Liveness -> false
  in
  if List.exists (fun v -> is_safety v.invariant) (violations t) then
    Safety_violation
  else if t.rev_violations <> [] then Safe_stall
  else Live
let seed t = t.seed
let schedule t = t.schedule
let delivered_count t p = t.counts.(p)
let log t p = List.rev t.rev_logs.(p)

let pp_violation ppf v =
  Fmt.pf ppf "%s violated at %a by %a: %s" (invariant_name v.invariant) Time.pp
    v.at Pid.pp v.at_process v.detail

(* ---- Snapshot ---- *)

module Snap = Snapshot

type mon_data = {
  md_rev_logs : App_msg.id list array;
  md_counts : int array;
  md_seen : (App_msg.id, unit) Hashtbl.t array;
  md_global : App_msg.id array;
  md_global_len : int;
  md_fingerprints : (App_msg.id, int * Pid.t) Hashtbl.t;
  md_tampered_detected : int;
  md_tampered_silent : int;
  md_rev_violations : violation list;
}

let snapshot ?(name = "fault.monitor") t =
  Snap.make ~name ~version:1
    ~data:
      (Snap.pack
         {
           md_rev_logs = t.rev_logs;
           md_counts = t.counts;
           md_seen = t.seen;
           md_global = Array.sub t.global 0 t.global_len;
           md_global_len = t.global_len;
           md_fingerprints = t.fingerprints;
           md_tampered_detected = t.tampered_detected;
           md_tampered_silent = t.tampered_silent;
           md_rev_violations = t.rev_violations;
         })
    [
      ("violations", Snap.Int (List.length t.rev_violations));
      ( "delivered",
        Snap.List (Array.to_list (Array.map (fun c -> Snap.Int c) t.counts)) );
      ("global_len", Snap.Int t.global_len);
      ("tampered_detected", Snap.Int t.tampered_detected);
      ("tampered_silent", Snap.Int t.tampered_silent);
    ]
