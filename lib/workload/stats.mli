(** Alias of [Repro_obs.Stats], kept only for the repository benchmark
    ([perfbench/]), which reaches [Stats] through [open Repro_workload].
    Every other caller names [Repro_obs.Stats]. *)

include module type of struct
  include Repro_obs.Stats
end
