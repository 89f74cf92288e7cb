open Repro_sim
open Repro_net

type rbcast_variant = Classic | Majority

type consensus_variant = Ct_optimized | Ct_classic

type modular_opts = {
  consensus_variant : consensus_variant;
  rbcast_variant : rbcast_variant;
  decision_tag_only : bool;
}

type mono_opts = {
  combine_proposal_decision : bool;
  piggyback_on_ack : bool;
  cheap_decision : bool;
}

type transport = Tcp_like | Lossy of float

type t = {
  n : int;
  seed : int;
  wire : Wire.t;
  topology : Topology.t option;
  window : int;
  dispatch_cost : Time.span;
  round1_kick : Time.span;
  batch_cap : int;
  transport : transport;
  modular : modular_opts;
  mono : mono_opts;
}

let mono_on = { combine_proposal_decision = true; piggyback_on_ack = true; cheap_decision = true }

let default ~n =
  {
    n;
    seed = 0;
    wire = Wire.default;
    topology = None;
    window = 2;
    dispatch_cost = Time.span_us 5;
    round1_kick = Time.span_ms 500;
    batch_cap = 64;
    transport = Tcp_like;
    modular =
      { consensus_variant = Ct_optimized; rbcast_variant = Majority; decision_tag_only = true };
    mono = mono_on;
  }

let mono_ablations =
  [
    ("all on (paper §4)", mono_on);
    ("no §4.1 combine", { mono_on with combine_proposal_decision = false });
    ("no §4.2 piggyback", { mono_on with piggyback_on_ack = false });
    ("no §4.3 cheap decision", { mono_on with cheap_decision = false });
    (* §4.3 only bites when decisions go standalone, i.e. §4.1 is off. *)
    ( "no §4.1, no §4.3",
      { mono_on with combine_proposal_decision = false; cheap_decision = false } );
    ( "all off",
      { combine_proposal_decision = false; piggyback_on_ack = false; cheap_decision = false } );
  ]

let coordinator t ~round =
  if round < 1 then invalid_arg "Params.coordinator: rounds start at 1";
  (round - 1) mod t.n

let majority t = (t.n / 2) + 1
