module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger

type reference = {
  lower_bound : int;
  exact : int option;
  greedy_upper : int option;
}

let reference ?(exact_budget = 0) ~m instance =
  let lower_bound = Rrs_offline.Lower_bounds.combined ~m instance in
  let exact =
    if exact_budget > 0 then
      Rrs_offline.Brute_force.opt_cost ~max_states:exact_budget ~m instance
    else None
  in
  let greedy_upper =
    match Rrs_offline.Greedy_offline.run ~m instance with
    | Ok { cost; _ } -> Some cost
    | Error _ -> None
  in
  { lower_bound; exact; greedy_upper }

let denominator reference =
  match reference.exact with
  | Some opt -> max opt 1
  | None -> max reference.lower_bound 1

type row = {
  algorithm : string;
  n : int;
  cost : int;
  reconfig_count : int;
  drop_count : int;
  ratio : float;
  stats : (string * int) list;
}

let make_row ~algorithm ~n ~reference ~cost ~reconfig_count ~drop_count ~stats =
  {
    algorithm;
    n;
    cost;
    reconfig_count;
    drop_count;
    ratio = float_of_int cost /. float_of_int (denominator reference);
    stats;
  }

let run_policy ?speed ~n ~reference ~policy:(module P : Rrs_sim.Policy.POLICY)
    instance =
  let result = Engine.run ?speed ~record_events:false ~n ~policy:(module P) instance in
  make_row ~algorithm:P.name ~n ~reference
    ~cost:(Ledger.total_cost result.ledger)
    ~reconfig_count:(Ledger.reconfig_count result.ledger)
    ~drop_count:(Ledger.drop_count result.ledger)
    ~stats:result.stats

let run_solver ?pipeline ~n ~reference instance =
  match Rrs_core.Solver.solve ?pipeline ~n instance with
  | Error message -> Error message
  | Ok outcome ->
      Ok
        (make_row
           ~algorithm:
             ("solver/" ^ Rrs_core.Solver.pipeline_to_string outcome.pipeline)
           ~n ~reference ~cost:outcome.cost ~reconfig_count:outcome.reconfig_count
           ~drop_count:outcome.drop_count ~stats:outcome.inner.stats)

let standard_policies : (string * (module Rrs_sim.Policy.POLICY)) list =
  [
    ("dlru", (module Rrs_core.Policy_lru));
    ("edf", (module Rrs_core.Policy_edf));
    ("dlru-edf", (module Rrs_core.Policy_lru_edf));
  ]

let sweep_augmentation ~m ~factors instance =
  let reference = reference ~m instance in
  List.map
    (fun factor -> (factor, run_solver ~n:(factor * m) ~reference instance))
    factors
