type t = { value : float; beyond : int; samples : int }

(* Samples ranked strictly after the interpolation position [q (n-1)] —
   the same position [Stats.percentile] interpolates at, so the count is
   exact for raw samples and computable from a sample count alone. *)
let beyond ~samples q =
  if samples = 0 then 0
  else samples - 1 - int_of_float (Float.floor (q *. float_of_int (samples - 1)))

let of_sorted sorted q =
  let samples = Array.length sorted in
  if samples = 0 then { value = 0.0; beyond = 0; samples }
  else
    { value = Repro_obs.Stats.percentile sorted q; beyond = beyond ~samples q; samples }

let of_summary ~samples ~value q = { value; beyond = beyond ~samples q; samples }
