(* Larger end-to-end runs: catch scalability and memory regressions (no
   timing assertions — just that big runs complete and stay exact). *)

module Instance = Rrs_sim.Instance
module Schedule = Rrs_sim.Schedule
module Engine = Rrs_sim.Engine
module Ledger = Rrs_sim.Ledger

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_large_direct_run () =
  let instance =
    Rrs_workload.Random_workloads.uniform ~seed:77 ~colors:64 ~delta:8
      ~bound_log_range:(0, 6) ~horizon:4096 ~load:0.7 ~rate_limited:true ()
  in
  check_bool "big instance" true (Instance.total_jobs instance > 50_000);
  let result =
    Engine.run ~record_events:false ~n:32
      ~policy:(module Rrs_core.Policy_lru_edf) instance
  in
  check "every job accounted" (Instance.total_jobs instance)
    (Ledger.exec_count result.ledger + Ledger.drop_count result.ledger)

let test_large_varbatch_pipeline () =
  let instance =
    Rrs_workload.Random_workloads.unbatched ~seed:77 ~colors:24 ~delta:6
      ~bound_range:(3, 100) ~horizon:2048 ~load:0.5 ()
  in
  match Rrs_core.Solver.solve ~pipeline:Var_batched ~n:24 instance with
  | Error e -> Alcotest.fail e
  | Ok { schedule; _ } ->
      check_bool "validates" true (Schedule.validate schedule = Ok ());
      check "jobs conserved" (Instance.total_jobs instance)
        (Schedule.exec_count schedule + Schedule.drop_count schedule)

let test_large_distribute_bursts () =
  (* Heavy bursts create many subcolors. *)
  let instance =
    Rrs_workload.Random_workloads.uniform ~seed:5 ~colors:16 ~delta:4
      ~bound_log_range:(0, 3) ~horizon:1024 ~load:8.0 ~rate_limited:false ()
  in
  let subcolors, _ = Rrs_core.Distribute.transform instance in
  check_bool "many subcolors" true
    (Instance.num_colors subcolors > Instance.num_colors instance);
  match Rrs_core.Solver.solve ~pipeline:Distributed ~n:16 instance with
  | Error e -> Alcotest.fail e
  | Ok { cost; inner; _ } ->
      check_bool "outer <= inner" true (cost <= Ledger.total_cost inner.ledger)

let test_timing_wheel_long_horizon () =
  let wheel = Rrs_ds.Timing_wheel.create ~horizon:4 () in
  let n = 50_000 in
  for i = 1 to n do
    Rrs_ds.Timing_wheel.add wheel ~time:(i * 7 mod 65_536) i
  done;
  let fired = ref 0 in
  Rrs_ds.Timing_wheel.advance wheel ~time:65_536 (fun _ _ -> incr fired);
  check "all fired" n !fired

let test_deep_adversary () =
  (* Appendix A at depth: 2^12-round horizon. *)
  let adv = Rrs_workload.Adversary.lru_killer ~n:8 ~delta:2 ~j:8 ~k:12 in
  let dlru = Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru) adv.instance in
  let combo =
    Engine.cost ~n:8 ~policy:(module Rrs_core.Policy_lru_edf) adv.instance
  in
  (* Exact formula still holds at depth. *)
  check "dlru exact" ((8 * 2) + 4096) dlru;
  check_bool "combo flat" true (combo < adv.off_cost)

let quick name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "stress",
      [
        quick "large direct run (64 colors, 4096 rounds)" test_large_direct_run;
        quick "large varbatch pipeline" test_large_varbatch_pipeline;
        quick "large distribute with bursts" test_large_distribute_bursts;
        quick "timing wheel long horizon" test_timing_wheel_long_horizon;
        quick "deep appendix-A adversary" test_deep_adversary;
      ] );
  ]
