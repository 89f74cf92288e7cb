(** Percentiles with the count of samples beyond them.

    A timing percentile is only worth reporting when at least ten samples
    lie beyond it; carrying that count next to the value lets the report
    say how much evidence stands behind a tail figure. *)

type t = {
  value : float;
  beyond : int;  (** Samples ranked strictly after the percentile position. *)
  samples : int;
}

val beyond : samples:int -> float -> int
(** [beyond ~samples q]: how many of [samples] sorted samples rank strictly
    after the linear-interpolation position [q (samples-1)]. *)

val of_sorted : float array -> float -> t
(** [of_sorted sorted q], [q] in [0,1], interpolating linearly like
    [Repro_obs.Stats.percentile]. An empty sample yields all zeros. *)

val of_summary : samples:int -> value:float -> float -> t
(** A percentile taken from an existing summary of [samples] samples. *)
