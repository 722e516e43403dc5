(* Edge cases across the stack: tiny resource counts, empty instances,
   degenerate parameters. *)

module Instance = Rrs_sim.Instance
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger
module Schedule = Rrs_sim.Schedule

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let empty = lazy (Instance.make ~delta:3 ~bounds:[| 2; 4 |] ~arrivals:[] ())

let test_empty_instance_everywhere () =
  let i = Lazy.force empty in
  check "total jobs" 0 (Instance.total_jobs i);
  List.iter
    (fun (name, policy) ->
      check (name ^ " cost 0") 0 (Engine.cost ~n:4 ~policy i))
    Rrs_stats.Experiment.standard_policies;
  (match Rrs_core.Solver.solve ~n:4 i with
  | Ok outcome -> check "solver cost 0" 0 outcome.cost
  | Error e -> Alcotest.fail e);
  check "par-edf drops 0" 0 (Rrs_core.Par_edf.drop_cost ~m:1 i);
  check "lower bound 0" 0 (Rrs_offline.Lower_bounds.combined ~m:1 i);
  check "greedy 0" 0 (Rrs_offline.Greedy_offline.cost ~m:1 i)

let test_tiny_n_dlru_edf () =
  let i = Instance.make ~delta:1 ~bounds:[| 2 |] ~arrivals:[ (0, [ (0, 2) ]) ] () in
  (* n = 1: zero distinct slots — the policy caches nothing and drops
     everything, but must stay well-formed. *)
  let result = Engine.run ~n:1 ~policy:(module Rrs_core.Policy_lru_edf) i in
  check "drops everything at n=1" 2 (Ledger.drop_count result.ledger);
  check "no reconfigs at n=1" 0 (Ledger.reconfig_count result.ledger);
  (* n = 2: one distinct color slot (the LRU half wins the rounding) —
     enough to serve a single-color instance. *)
  let result = Engine.run ~n:2 ~policy:(module Rrs_core.Policy_lru_edf) i in
  check "serves at n=2" 2 (Ledger.exec_count result.ledger);
  (* n = 4: 1 LRU + 1 EDF color slot. *)
  let result = Engine.run ~n:4 ~policy:(module Rrs_core.Policy_lru_edf) i in
  check "serves at n=4" 2 (Ledger.exec_count result.ledger)

let test_n_one_policies () =
  (* Even n=1 (capacity zero after halving) must not crash. *)
  let i = Instance.make ~delta:1 ~bounds:[| 2 |] ~arrivals:[ (0, [ (0, 1) ]) ] () in
  List.iter
    (fun (_, policy) -> ignore (Engine.cost ~n:1 ~policy i))
    Rrs_stats.Experiment.standard_policies

let test_delta_one () =
  (* Reconfiguration as cheap as a drop: eligibility after every job. *)
  let i =
    Instance.make ~delta:1 ~bounds:[| 2; 2 |]
      ~arrivals:[ (0, [ (0, 1); (1, 1) ]); (2, [ (0, 1) ]) ]
      ()
  in
  let result = Engine.run ~n:8 ~policy:(module Rrs_core.Policy_lru_edf) i in
  check "everything served" 3 (Ledger.exec_count result.ledger)

let test_single_round_bound_one () =
  (* Bound 1: the job must run in its arrival round or drop at the next. *)
  let i = Instance.make ~delta:1 ~bounds:[| 1 |] ~arrivals:[ (0, [ (0, 1) ]) ] () in
  let result = Engine.run ~n:4 ~policy:(module Rrs_core.Policy_lru_edf) i in
  check "job resolved" 1
    (Ledger.exec_count result.ledger + Ledger.drop_count result.ledger);
  check "opt" 1 (Option.get (Rrs_offline.Brute_force.opt_cost ~m:1 i))

let test_huge_delta () =
  (* Delta far above the job count: everyone drops everything, and that
     is optimal. *)
  let i =
    Instance.make ~delta:1000 ~bounds:[| 4 |] ~arrivals:[ (0, [ (0, 3) ]) ] ()
  in
  check "opt drops all" 3 (Option.get (Rrs_offline.Brute_force.opt_cost ~m:2 i));
  let cost = Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru_edf) i in
  check "dlru-edf matches" 3 cost

let test_varbatch_on_already_batched () =
  (* VarBatch on an already-batched power-of-two instance still works
     (it re-batches at half the bound). *)
  let i = Instance.make ~delta:2 ~bounds:[| 4 |] ~arrivals:[ (0, [ (0, 3) ]) ] () in
  check "half bound" 2 (Rrs_core.Var_batch.transform i).bounds.(0);
  match Rrs_core.Solver.solve ~pipeline:Var_batched ~n:8 i with
  | Error e -> Alcotest.fail e
  | Ok { schedule; _ } -> check_bool "valid" true (Schedule.validate schedule = Ok ())

let test_distribute_empty_request_rounds () =
  (* Batched instance with sparse, far-apart arrivals. *)
  let i =
    Instance.make ~delta:2 ~bounds:[| 8 |]
      ~arrivals:[ (0, [ (0, 20) ]); (64, [ (0, 20) ]) ]
      ()
  in
  match Rrs_core.Solver.solve ~pipeline:Distributed ~n:8 i with
  | Error e -> Alcotest.fail e
  | Ok { schedule; _ } ->
      check_bool "valid" true (Schedule.validate schedule = Ok ());
      check "jobs conserved" 40
        (Schedule.exec_count schedule + Schedule.drop_count schedule)

let test_static_with_zero_jobs () =
  match Rrs_offline.Static_offline.run ~m:2 (Lazy.force empty) with
  | Error e -> Alcotest.fail e
  | Ok result ->
      check "cost 0" 0 result.cost;
      Alcotest.(check (list (pair int int))) "no allocation" [] result.allocation

let test_landlord_all_equal_costs () =
  (* With unit costs Landlord behaves like a plain demand-counter scheme
     and must stay feasible. *)
  let i =
    Rrs_workload.Random_workloads.uniform ~seed:4 ~colors:6 ~delta:4
      ~bound_log_range:(2, 2) ~horizon:64 ~load:0.7 ~rate_limited:true ()
  in
  let w =
    match
      Rrs_uniform.Weighted.make ~instance:i ~drop_costs:(Array.make 6 1)
    with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let cost =
    Rrs_uniform.Weighted.run_policy ~n:8
      ~policy:(Rrs_uniform.Landlord.policy ~drop_costs:w.drop_costs)
      w
  in
  check_bool "finite cost" true (cost >= 0 && cost <= Instance.total_jobs i + 1000)

let quick name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "edge_cases",
      [
        quick "empty instance everywhere" test_empty_instance_everywhere;
        quick "tiny n for dlru-edf" test_tiny_n_dlru_edf;
        quick "n = 1 does not crash" test_n_one_policies;
        quick "delta = 1" test_delta_one;
        quick "bound = 1" test_single_round_bound_one;
        quick "huge delta" test_huge_delta;
        quick "varbatch on batched input" test_varbatch_on_already_batched;
        quick "distribute with sparse batches" test_distribute_empty_request_rounds;
        quick "static with no jobs" test_static_with_zero_jobs;
        quick "landlord with unit costs" test_landlord_all_equal_costs;
      ] );
  ]
