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
  checksums : bool;
  modular : modular_opts;
  mono : mono_opts;
}

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
    checksums = true;
    modular =
      { consensus_variant = Ct_optimized; rbcast_variant = Majority; decision_tag_only = true };
    mono =
      {
        combine_proposal_decision = true;
        piggyback_on_ack = true;
        cheap_decision = true;
      };
  }

let coordinator t ~round =
  if round < 1 then invalid_arg "Params.coordinator: rounds start at 1";
  (round - 1) mod t.n

let majority t = (t.n / 2) + 1
