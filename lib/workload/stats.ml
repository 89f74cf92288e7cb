(* A re-export of [Repro_obs.Stats], which owns the implementation. The
   library itself and its users name [Repro_obs.Stats]; the one remaining
   user of this alias is the repository benchmark ([perfbench/]), which
   reaches [Stats] through [open Repro_workload]. Delete this file together
   with that open's reliance on it. *)
include Repro_obs.Stats
