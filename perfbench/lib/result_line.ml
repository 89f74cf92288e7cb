module Jsonl = Repro_obs.Jsonl

type metric = { name : string; value : float; unit_ : string }
type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let render t =
  let seen = Hashtbl.create 16 in
  let metric m =
    if not (Float.is_finite m.value) then
      invalid_arg ("Result_line.render: non-finite " ^ m.name);
    if Hashtbl.mem seen m.name then invalid_arg ("Result_line.render: duplicate " ^ m.name);
    Hashtbl.add seen m.name ();
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
      (Jsonl.to_string (Jsonl.String m.name))
      m.value
      (Jsonl.to_string (Jsonl.String m.unit_))
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))

let parse line =
  let ( let* ) = Result.bind in
  let field name j conv =
    match conv (Jsonl.member name j) with
    | Some v -> Ok v
    | None -> Error ("missing or mistyped " ^ name)
  in
  let* j = Jsonl.parse line in
  let* correct =
    field "correct" j (function Some (Jsonl.Bool b) -> Some b | _ -> None)
  in
  let* attempted = field "attempted" j Jsonl.to_int_opt in
  let* failed = field "failed" j Jsonl.to_int_opt in
  let* metrics =
    match Jsonl.member "metrics" j with
    | Some (Jsonl.Obj kvs) ->
      List.fold_right
        (fun (name, m) acc ->
          let* acc = acc in
          let* value = field "value" m Jsonl.to_float_opt in
          let* unit_ = field "unit" m Jsonl.to_string_opt in
          Ok ({ name; value; unit_ } :: acc))
        kvs (Ok [])
    | _ -> Error "missing metrics"
  in
  Ok { correct; attempted; failed; metrics }
