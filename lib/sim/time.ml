type t = int
type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let to_ns t = t

let span_ns n =
  if n < 0 then invalid_arg "Time.span_ns: negative";
  n

let span_us n = span_ns (n * 1_000)
let span_ms n = span_ns (n * 1_000_000)
let span_s n = span_ns (n * 1_000_000_000)
let span_to_ns d = d
let span_zero = 0
let add t d = t + d

let diff later earlier =
  if later < earlier then invalid_arg "Time.diff: negative duration";
  later - earlier

let span_add a b = a + b

let span_scale k d =
  if k < 0 then invalid_arg "Time.span_scale: negative factor";
  k * d

let span_max a b = Stdlib.max a b

(* Branch-based rather than [Stdlib.compare]: instants are compared on
   the engine's hot path, and the polymorphic compare entry point costs a
   C call per comparison. The annotations pin the int specialisation. *)
let compare (a : t) (b : t) = if a < b then -1 else if a > b then 1 else 0
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let max (a : t) b = Stdlib.max a b
let min (a : t) b = Stdlib.min a b
let to_ms_float t = float_of_int t /. 1e6
let span_to_ms_float d = float_of_int d /. 1e6
let pp ppf t = Fmt.pf ppf "%.3fms" (to_ms_float t)
