module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Rebuild = Rrs_sim.Rebuild

type pipeline = Direct_lru_edf | Distributed | Var_batched

let pipeline_to_string = function
  | Direct_lru_edf -> "direct"
  | Distributed -> "distribute"
  | Var_batched -> "varbatch"

let applicable instance = function
  | Direct_lru_edf -> Instance.bounds_pow2 instance && Instance.is_rate_limited instance
  | Distributed -> Instance.bounds_pow2 instance && Instance.is_batched instance
  | Var_batched -> true

let classify instance =
  List.find (applicable instance) [ Direct_lru_edf; Distributed; Var_batched ]

type outcome = {
  pipeline : pipeline;
  schedule : Schedule.t;
  cost : int;
  reconfig_count : int;
  drop_count : int;
  inner : Engine.result;
}

let default_policy : (module Rrs_sim.Policy.POLICY) = (module Policy_lru_edf)

(* The inner run's reconfigurations and executions as actions on the
   original instance, subcolors relabeled to their parents. Drops are
   left out: the rebuild regenerates them for the original instance, and
   inner runs inject no faults. *)
let actions_of_events parent_of events =
  List.filter_map
    (function
      | Ledger.Reconfig { round; mini_round; location; next; _ } ->
          Some (Rebuild.Configure { round; mini_round; location; color = parent_of.(next) })
      | Ledger.Execute { round; mini_round; location; color; _ } ->
          Some (Rebuild.Run { round; mini_round; location; color = parent_of.(color) })
      | Ledger.Drop _ | Ledger.Crash _ | Ledger.Repair _ | Ledger.Reconfig_failed _ -> None)
    events

let solve ?(policy = default_policy) ?pipeline ~n instance =
  let chosen = match pipeline with Some p -> p | None -> classify instance in
  let outcome inner schedule =
    {
      pipeline = chosen;
      schedule;
      cost = Schedule.total_cost schedule;
      reconfig_count = Schedule.reconfig_count schedule;
      drop_count = Schedule.drop_count schedule;
      inner;
    }
  in
  if not (applicable instance chosen) then
    Error
      (Printf.sprintf "pipeline %s is not applicable to %s"
         (pipeline_to_string chosen) instance.Instance.name)
  else if chosen = Direct_lru_edf then
    let inner = Engine.run ~record_events:true ~n ~policy instance in
    Ok (outcome inner (Schedule.of_run ~instance ~n ~speed:1 inner.ledger))
  else
    (* Distribute, after VarBatch's delaying for unbatched input; every
       delayed window sits inside the original one, so the inner run
       replays onto the original instance in one rebuild. *)
    let batched = if chosen = Var_batched then Var_batch.transform instance else instance in
    let inner_instance, parent_of = Distribute.transform batched in
    let inner = Engine.run ~record_events:true ~n ~policy inner_instance in
    let actions = actions_of_events parent_of (Ledger.events inner.ledger) in
    match Rebuild.rebuild ~instance ~n ~speed:1 ~actions with
    | Error message -> Error ("replay on original instance failed: " ^ message)
    | Ok schedule -> Ok (outcome inner schedule)
