open Repro_sim
open Repro_core
module Obs = Repro_obs.Obs

type t = { mutable rev_applied : Schedule.step list }

let apply ~obs group (step : Schedule.step) =
  let net = Group.network group in
  (match step.Schedule.action with
  | Schedule.Crash p -> Group.crash group p
  | Schedule.Crash_after_sends (p, k) -> Repro_net.Network.crash_after_sends net p k
  | Schedule.Cut (src, dst) -> Repro_net.Network.cut net ~src ~dst
  | Schedule.Heal (src, dst) -> Repro_net.Network.heal net ~src ~dst
  | Schedule.Partition blocks -> Repro_net.Network.partition net blocks
  | Schedule.Heal_all -> Repro_net.Network.heal_all net
  | Schedule.Loss_rate p -> Repro_net.Network.set_loss_rate net p
  | Schedule.Delay_spike d -> Repro_net.Network.set_extra_delay net d
  | Schedule.Adv_drop_budget d -> Repro_net.Network.set_adv_drop_budget net d
  | Schedule.Corrupt_rate p -> Repro_net.Network.set_corrupt_rate net p
  | Schedule.Duplicate_rate p -> Repro_net.Network.set_duplicate_rate net p
  | Schedule.Reorder_window w -> Repro_net.Network.set_reorder_window net w
  | Schedule.Equivocate_rate p -> Repro_net.Network.set_equivocate_rate net p);
  (* A root span: a fault step is caused by the plan, not by any message,
     and nothing runs under it, so it never lies on a delivery's chain. *)
  if Obs.tracing obs then
    ignore
      (Obs.span obs ~parent:Obs.Span.no_parent ~pid:0 ~layer:`Net ~phase:"fault"
         ~detail:(Schedule.action_to_string step.Schedule.action))

let install ?(obs = Obs.noop) group schedule =
  (* Validate against the live group before registering anything, so a bad
     plan is a clean [Error] up front instead of an exception mid-run. *)
  match Schedule.validate ~n:(Group.params group).Params.n schedule with
  | Error _ as e -> e
  | Ok schedule ->
    (* Plans touching adversary knobs need the adversary armed; arming is
       draw-free and idempotent, so doing it unconditionally for such
       plans cannot perturb the run. *)
    if Schedule.uses_adversary schedule then Adversary.arm group;
    let t = { rev_applied = [] } in
    let engine = Group.engine group in
    let base = Engine.now engine in
    List.iter
      (fun (step : Schedule.step) ->
        ignore
          (Engine.schedule_at engine (Time.add base step.Schedule.at) (fun () ->
               apply ~obs group step;
               t.rev_applied <- step :: t.rev_applied)))
      schedule;
    Ok t

let install_exn ?obs group schedule =
  match install ?obs group schedule with
  | Ok t -> t
  | Error e -> invalid_arg ("Nemesis.install: " ^ e)

let applied t = List.rev t.rev_applied
