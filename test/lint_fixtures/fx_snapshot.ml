(* Broken and sanctioned snapshot sections for the
   snapshot-completeness rule. *)

type t = {
  mutable covered : int; (* read by snapshot: fine *)
  mutable missed : int; (* never read: violation *)
  log : (int, int) Hashtbl.t; (* accumulator, never read: violation *)
  on_event : int -> unit; (* arrow: runtime topology, exempt *)
  table : int array; (* immutable array: constant table, exempt *)
  mutable head : int; (* read via the helper: fine *)
}

module Snap = Repro_sim.Snapshot

let head_of t = t.head

let snapshot t =
  Snap.make ~name:"fx" ~version:1
    [ ("covered", Snap.Int t.covered); ("head", Snap.Int (head_of t)) ]

(* A complete section: the whole-record copy covers every field. *)
module Ok_copy = struct
  type t = { mutable a : int; mutable b : int }

  let snapshot t = Snap.make ~name:"ok" ~version:1 ~data:(Snap.pack { t with a = t.a }) []
end

(* Not a section (traffic totals, like [Net_stats.snapshot]): outside
   the rule, so the unread counter is not flagged. *)
module Totals = struct
  type t = { mutable sent : int; mutable unread : int }

  let snapshot t = t.sent
end
