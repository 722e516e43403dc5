let () =
  Alcotest.run "rrs"
    (Test_ds.suite @ Test_sim.suite @ Test_policies.suite @ Test_reference.suite @ Test_reductions.suite @ Test_offline.suite @ Test_lemmas.suite @ Test_workload.suite @ Test_analysis.suite @ Test_integration.suite @ Test_constructions.suite @ Test_ablation.suite @ Test_static.suite @ Test_weighted.suite @ Test_stress.suite @ Test_edge_cases.suite @ Test_metrics.suite @ Test_sweep.suite @ Test_obs.suite @ Test_fault.suite @ Test_server.suite @ Test_failover.suite @ Test_poll.suite @ Test_wire_stream.suite @ Test_net.suite)
