(* Snapshot-completeness: every module whose toplevel [snapshot] returns
   a [Repro_sim.Snapshot.section] must read all of the mutable state
   reachable from its state type. Sections are what [repro bisect] diffs
   between the last-good and first-bad frames, so a field the section
   does not capture is invisible to that state diff: a fault living there
   shows up as no change at all. (Resuming never reads sections back —
   it goes through the world blob — so this is about the diagnostic
   view, not about replay correctness.)

   For each structure (the compilation unit, or a nested module) that
   binds a section-returning [snapshot] at its toplevel and declares a
   type [t], the rule

   1. collects the *obligations*: walking the declarations reachable
      from [t] through locally-declared records, variants and visible
      containers (option/list/array/tuple), every record label that is
      declared [mutable], or whose type visibly contains an accumulating
      mutable container ([ref], [Hashtbl.t], [Queue.t], [Stack.t],
      [Buffer.t], [Atomic.t]);
   2. collects the *coverage*: the record labels read ([Texp_field], a
      record pattern, or the [Kept] labels of a [{ base with ... }]
      copy) by the [snapshot] binding — and by the [sections] binding
      when one exists, the aggregator idiom of [core.Replica] /
      [core.Group] where [snapshot] builds the module's own section and
      [sections] mounts the sub-components' — transitively through
      every same-structure toplevel helper either references (so a
      [frame_at]-style accessor counts);
   3. flags each obligation outside the coverage, at the label's
      declaration site.

   Sanctioned runtime-topology exemptions — state only the [Marshal]
   world blob can carry, not the introspectable codec — are cut out of
   the walk:

   - any label whose type visibly contains a function arrow (callbacks,
     handler slots, subscriber lists: closures cannot round-trip the
     codec at all);
   - labels of a type in [topology_types] (an [Engine.timer] names a
     live slot in the engine's queue — the world blob carries it);
   - the unit-qualified labels in [topology_fields] (the event queue's
     heap storage holds the pending-event closures; its section reports
     the queue's occupancy instead).

   A [snapshot] returning anything else ([Net_stats.snapshot]'s traffic
   totals) is not a section and is outside the rule.

   Soundness envelope (what this rule cannot prove): named types from
   other units stay opaque (a module hiding mutable state behind an
   abstract type from elsewhere is that unit's obligation, checked when
   *its* snapshot is linted); an immutable label holding a bare [array] or
   [Bytes.t] is treated as a constant table (the same deliberate
   under-approximation as the [toplevel-state] rule) unless the label is
   itself mutable; coverage is read-based, so a snapshot that reads a
   field and then drops it on the floor still counts as covering it. *)

open Typedtree

let rule = "snapshot-completeness"

let accumulators =
  [ "ref"; "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t"; "Atomic.t" ]

(* (unit, type) pairs that name runtime topology wherever they appear. *)
let topology_types = [ ("sim.Engine", "timer") ]

(* (unit, type, label) triples assigned to the world blob by design. *)
let topology_fields =
  [
    (* The heap storage holds the pending events, which are closures
       that only the world blob carries; the section reports [pending]
       and [next_seq] instead. *)
    ("sim.Event_queue", "t", "slots");
    (* The ablation-only decision channel is wired once at stack
       construction and holds handler closures; its source documents
       that it rides the world blob with the timers. *)
    ("core.Abcast_monolithic", "t", "decision_rb");
  ]

let unit_name = function Some u -> Boundaries.unit_name u | None -> ""

let rec core_type_exists p (ct : core_type) =
  p ct
  ||
  match ct.ctyp_desc with
  | Ttyp_arrow (_, a, b) -> core_type_exists p a || core_type_exists p b
  | Ttyp_tuple l -> List.exists (core_type_exists p) l
  | Ttyp_constr (_, _, args) -> List.exists (core_type_exists p) args
  | Ttyp_alias (t, _) -> core_type_exists p t
  | Ttyp_poly (_, t) -> core_type_exists p t
  | _ -> false

let contains_arrow =
  core_type_exists (fun ct ->
      match ct.ctyp_desc with Ttyp_arrow _ -> true | _ -> false)

let contains_accumulator =
  core_type_exists (fun ct ->
      match ct.ctyp_desc with
      | Ttyp_constr (p, _, _) -> List.mem (Rules.norm_path p) accumulators
      | _ -> false)

let contains_topology_type ~unit =
  ignore unit;
  core_type_exists (fun ct ->
      match ct.ctyp_desc with
      | Ttyp_constr (p, _, _) -> (
        match Boundaries.unit_of_path p with
        | Some u -> List.mem (Boundaries.unit_name u, Path.last p) topology_types
        | None -> false)
      | _ -> false)

(* Heads of a label type that may name locally-declared types to recurse
   into: every [Ttyp_constr] head whose path is local (non-global head). *)
let local_heads (ct : core_type) =
  let out = ref [] in
  ignore
    (core_type_exists
       (fun ct ->
         (match ct.ctyp_desc with
         | Ttyp_constr (p, _, _) when not (Ident.global (Path.head p)) ->
           out := Path.last p :: !out
         | _ -> ());
         false)
       ct);
  !out

type obligation = { tname : string; label : string; loc : Location.t }

(* One structure's toplevel inventory. *)
type inventory = {
  decls : (string, type_declaration) Hashtbl.t;
  bindings : (string, (string * string) list * string list) Hashtbl.t;
      (* unique name -> labels read, local unique names referenced *)
  named : (string, string) Hashtbl.t; (* binding name -> unique name *)
  mutable snapshot : string option;
      (* unique name of the toplevel [snapshot] returning a section *)
}

let label_key (ld : Types.label_description) =
  let tname =
    match Types.get_desc ld.Types.lbl_res with
    | Types.Tconstr (p, _, _) -> Path.last p
    | _ -> "?"
  in
  (tname, ld.Types.lbl_name)

(* Labels read and same-structure toplevel values referenced by [e]. *)
let reads_of_expr (e : expression) =
  let labels = ref [] and refs = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_field (_, _, ld) -> labels := label_key ld :: !labels
    | Texp_ident (Path.Pident id, _, _) -> refs := Ident.unique_name id :: !refs
    | Texp_record { fields; extended_expression = Some _; _ } ->
      (* [{ base with l = ... }] copies every [Kept] label from [base] —
         the whole-record-copy idiom snapshots rely on. *)
      Array.iter
        (fun (ld, def) ->
          match def with
          | Kept _ -> labels := label_key ld :: !labels
          | Overridden _ -> ())
        fields
    | _ -> ());
    default.expr sub e
  in
  let pat : type k. _ -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) ->
      List.iter (fun (_, ld, _) -> labels := label_key ld :: !labels) fields
    | _ -> ());
    default.pat sub p
  in
  let it = { default with expr; pat } in
  it.expr it e;
  (!labels, !refs)

(* Local module aliases ([module Snap = Snapshot]) by unique name, so a
   type path through one resolves to the aliased unit. *)
let module_aliases items =
  let tbl = Hashtbl.create 4 in
  let default = Tast_iterator.default_iterator in
  let module_binding sub (mb : module_binding) =
    (match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_ident (p, _) -> Hashtbl.replace tbl (Ident.unique_name id) p
    | _ -> ());
    default.module_binding sub mb
  in
  let it = { default with module_binding } in
  List.iter (it.structure_item it) items;
  tbl

(* Does a function of type [ty] return a [Repro_sim.Snapshot.section]? *)
let returns_section aliases ty =
  let rec result ty =
    match Types.get_desc ty with
    | Types.Tarrow (_, _, r, _) -> result r
    | Types.Tpoly (t, _) -> result t
    | _ -> ty
  in
  match Types.get_desc (result ty) with
  | Types.Tconstr (Path.Pdot (m, "section"), _, _) -> (
    let m =
      match m with
      | Path.Pident id ->
        Option.value ~default:m (Hashtbl.find_opt aliases (Ident.unique_name id))
      | _ -> m
    in
    match Boundaries.unit_of_path m with
    | Some u -> String.equal (Boundaries.unit_name u) "sim.Snapshot"
    | None -> false)
  | _ -> false

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Some (Ident.name id, Ident.unique_name id)
  | _ -> None

(* Obligations reachable from the declaration named [root]. *)
let obligations_from ~unit inv root =
  let visited = Hashtbl.create 8 in
  let out = ref [] in
  let rec walk_decl name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match Hashtbl.find_opt inv.decls name with
      | None -> ()
      | Some decl ->
        let tname = Ident.name decl.typ_id in
        let walk_labels lds = List.iter (walk_label tname) lds in
        (match decl.typ_kind with
        | Ttype_record lds -> walk_labels lds
        | Ttype_variant cds ->
          List.iter
            (fun (cd : constructor_declaration) ->
              match cd.cd_args with
              | Cstr_tuple cts -> List.iter walk_type cts
              | Cstr_record lds -> walk_labels lds)
            cds
        | Ttype_abstract | Ttype_open -> ());
        Option.iter walk_type decl.typ_manifest
    end
  and walk_label tname (ld : label_declaration) =
    let label = Ident.name ld.ld_id in
    let exempt =
      contains_arrow ld.ld_type
      || contains_topology_type ~unit ld.ld_type
      || List.mem (unit_name unit, tname, label) topology_fields
    in
    if not exempt then begin
      if ld.ld_mutable = Asttypes.Mutable || contains_accumulator ld.ld_type
      then out := { tname; label; loc = ld.ld_loc } :: !out;
      walk_type ld.ld_type
    end
  and walk_type ct = List.iter walk_decl (local_heads ct) in
  walk_decl root;
  List.rev !out

(* The labels the root bindings read, transitively through
   same-structure toplevel helpers. *)
let coverage_from inv starts =
  let covered = Hashtbl.create 16 in
  let seen = Hashtbl.create 8 in
  let rec visit stamp =
    if not (Hashtbl.mem seen stamp) then begin
      Hashtbl.replace seen stamp ();
      match Hashtbl.find_opt inv.bindings stamp with
      | None -> ()
      | Some (labels, refs) ->
        List.iter (fun k -> Hashtbl.replace covered k ()) labels;
        List.iter visit refs
    end
  in
  List.iter visit starts;
  covered

(* Coverage roots: [snapshot], plus the [sections] aggregator when the
   module has one (the Replica/Group idiom: [snapshot] builds the
   module's own section, [sections] mounts the sub-components'). *)
let coverage_roots inv snap_stamp =
  snap_stamp
  :: (match Hashtbl.find_opt inv.named "sections" with
     | Some s -> [ s ]
     | None -> [])

let inventory_of_items ~aliases items =
  let inv =
    {
      decls = Hashtbl.create 16;
      bindings = Hashtbl.create 16;
      named = Hashtbl.create 16;
      snapshot = None;
    }
  in
  let submodules = ref [] in
  let rec scan items =
    List.iter
      (fun (item : structure_item) ->
        match item.str_desc with
        | Tstr_type (_, decls) ->
          List.iter
            (fun (d : type_declaration) ->
              let name = Ident.name d.typ_id in
              if not (Hashtbl.mem inv.decls name) then
                Hashtbl.replace inv.decls name d)
            decls
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : value_binding) ->
              match binding_name vb with
              | Some (name, stamp) ->
                Hashtbl.replace inv.bindings stamp (reads_of_expr vb.vb_expr);
                if not (Hashtbl.mem inv.named name) then
                  Hashtbl.replace inv.named name stamp;
                if
                  String.equal name "snapshot"
                  && Option.is_none inv.snapshot
                  && returns_section aliases vb.vb_expr.exp_type
                then inv.snapshot <- Some stamp
              | None -> ())
            vbs
        | Tstr_module mb -> scan_module mb.mb_expr
        | Tstr_recmodule mbs -> List.iter (fun mb -> scan_module mb.mb_expr) mbs
        | _ -> ())
      items
  and scan_module (m : module_expr) =
    match m.mod_desc with
    | Tmod_structure s -> submodules := s.str_items :: !submodules
    | Tmod_constraint (me, _, _, _) -> scan_module me
    | _ -> ()
  in
  scan items;
  (inv, List.rev !submodules)

(* The structure's section-returning [snapshot] and its state type [t]:
   the obligations reachable from [t] and the labels its coverage roots
   read. [None] when the structure has no such pair. *)
let audit ~unit inv =
  match inv.snapshot with
  | Some snap_stamp when Hashtbl.mem inv.decls "t" ->
    Some (obligations_from ~unit inv "t", coverage_from inv (coverage_roots inv snap_stamp))
  | _ -> None

let check_items ~unit ~file items =
  let aliases = module_aliases items in
  let out = ref [] in
  let rec go items =
    let inv, submodules = inventory_of_items ~aliases items in
    (* Submodule type declarations are visible to the parent's walk (a
       state type may reference [Inner.t]); merge them in by name after
       the parent's own, which keeps the parent's names winning. *)
    List.iter
      (fun sub_items ->
        let sub_inv, _ = inventory_of_items ~aliases sub_items in
        Hashtbl.fold (fun name d acc -> (name, d) :: acc) sub_inv.decls []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.iter (fun (name, d) ->
               if not (Hashtbl.mem inv.decls name) then
                 Hashtbl.replace inv.decls name d))
      submodules;
    (match audit ~unit inv with
    | Some (obligations, covered) ->
      List.iter
        (fun o ->
          if not (Hashtbl.mem covered (o.tname, o.label)) then
            out :=
              Violation.make ~rule ~file ~loc:o.loc
                (Printf.sprintf
                   "mutable state %s.%s is not read by this module's \
                    [snapshot], so it is invisible to `repro bisect`'s state \
                    diff (capture it in the section, or exempt it as runtime \
                    topology if only the world blob can carry it)"
                   o.tname o.label)
              :: !out)
        obligations
    | None -> ());
    List.iter go submodules
  in
  go items;
  !out

let check ?unit ~file (str : structure) : Violation.t list =
  List.sort Violation.order (check_items ~unit ~file str.str_items)

(* Exposed for tests: the obligation and coverage sets the toplevel
   structure's section-returning [snapshot] is checked against (empty
   when it has none). *)
let debug_pairs ?unit (str : structure) =
  let aliases = module_aliases str.str_items in
  let inv, _ = inventory_of_items ~aliases str.str_items in
  match audit ~unit inv with
  | Some (obligations, covered) ->
    ( List.map (fun o -> (o.tname, o.label)) obligations,
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) covered []) )
  | None -> ([], [])
