(** The benchmark's result line: one JSON object with exactly the keys
    [correct], [attempted], [failed] and [metrics], each metric an object
    [{"value": v, "unit": u}]. Values print with 17 significant digits,
    so parsing the line gives back the exact floats. *)

type metric = { name : string; value : float; unit_ : string }

type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

val render : t -> string
(** @raise Invalid_argument on a non-finite value or a duplicate name. *)

val parse : string -> (t, string) result
